// Command pidlayout demonstrates the data-placement physics the whole
// paper rests on (Figure 1 and § II-B): how a 64-byte burst stripes
// across the 8 banks of an entangled group, why the host cannot interpret
// PIM-resident data without a domain transfer, and how cross-domain
// modulation moves whole elements between banks with one byte rotation.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/host"
	"repro/internal/vec"
)

func main() { run(os.Stdout) }

// run prints the demonstration to w. Bursts go through dram's bus-order
// ReadBurst/WriteBurst: the byte order on the channel bus is the point.
func run(w io.Writer) {
	sys, err := dram.NewSystem(dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 1, MramPerBank: 64})
	if err != nil {
		panic(err)
	}
	h := host.New(sys, cost.DefaultParams())

	fmt.Fprintln(w, "1. Host-domain data: eight 8-byte elements A..H")
	data := make([]byte, 64)
	for e := 0; e < 8; e++ {
		for b := 0; b < 8; b++ {
			data[8*e+b] = byte('A'+e)<<4 | byte(b) // element letter, byte index
		}
	}
	printWords(w, "   host buffer", data)

	fmt.Fprintln(w, "\n2. Written raw (no domain transfer): each element shatters")
	fmt.Fprintln(w, "   across the 8 banks — byte i of the burst lands in chip i%8:")
	var r [dram.BurstBytes]byte
	copy(r[:], data)
	sys.WriteBurst(0, 0, &r)
	for c := 0; c < 8; c++ {
		fmt.Fprintf(w, "   bank %d: % x\n", c, sys.BankBytes(c)[:8])
	}

	fmt.Fprintln(w, "\n3. Domain transfer first (8x8 byte transpose, § II-B):")
	dt := append([]byte(nil), data...)
	h.DomainTransfer(dt)
	copy(r[:], dt)
	sys.WriteBurst(0, 0, &r)
	for c := 0; c < 8; c++ {
		fmt.Fprintf(w, "   bank %d: % x   <- element %c intact\n", c, sys.BankBytes(c)[:8], 'A'+c)
	}

	fmt.Fprintln(w, "\n4. Cross-domain modulation (§ V-A3): one byte-level rotate of")
	fmt.Fprintln(w, "   the PIM-domain burst moves every element to the next bank")
	fmt.Fprintln(w, "   (this is _mm512_rol_epi64 on real hardware):")
	var u vec.Unit
	sys.ReadBurst(0, 0, &r)
	r = u.RotBanks(r, 8, 1)
	sys.WriteBurst(0, 0, &r)
	for c := 0; c < 8; c++ {
		fmt.Fprintf(w, "   bank %d: % x   <- element %c\n", c, sys.BankBytes(c)[:8], 'A'+(c+7)%8)
	}
	fmt.Fprintln(w, "\nNo domain transfer was needed for step 4 — that single fused")
	fmt.Fprintln(w, "shuffle is what eliminates DT from AlltoAll and AllGather.")
}

func printWords(w io.Writer, label string, b []byte) {
	fmt.Fprintf(w, "%s:", label)
	for e := 0; e < 8; e++ {
		fmt.Fprintf(w, " %c[% x]", 'A'+e, b[8*e:8*e+2])
	}
	fmt.Fprintln(w, " ...")
}
