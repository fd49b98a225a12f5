// Command pidlayout demonstrates the data-placement physics the whole
// paper rests on (Figure 1 and § II-B): how a 64-byte burst stripes
// across the 8 banks of an entangled group, why the host cannot interpret
// PIM-resident data without a domain transfer, and how cross-domain
// modulation moves whole elements between banks with one byte rotation.
package main

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/host"
	"repro/internal/vec"

	"repro/internal/cost"
)

func main() {
	sys, err := dram.NewSystem(dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 1, MramPerBank: 64})
	if err != nil {
		panic(err)
	}
	h := host.New(sys, cost.DefaultParams())
	sh := h.Shards(1)[0] // bursts move through a shard, tallied at MergeShards

	fmt.Println("1. Host-domain data: eight 8-byte elements A..H")
	data := make([]byte, 64)
	for e := 0; e < 8; e++ {
		for b := 0; b < 8; b++ {
			data[8*e+b] = byte('A'+e)<<4 | byte(b) // element letter, byte index
		}
	}
	printWords("   host buffer", data)

	fmt.Println("\n2. Written raw (no domain transfer): each element shatters")
	fmt.Println("   across the 8 banks — byte i of the burst lands in chip i%8:")
	var r vec.Reg
	copy(r[:], data)
	h.BeginXfer()
	sh.WriteBurst(0, 0, r)
	h.MergeShards()
	h.EndXfer()
	for c := 0; c < 8; c++ {
		fmt.Printf("   bank %d: % x\n", c, sys.BankBytes(c)[:8])
	}

	fmt.Println("\n3. Domain transfer first (8x8 byte transpose, § II-B):")
	dt := append([]byte(nil), data...)
	h.DomainTransfer(dt)
	copy(r[:], dt)
	h.BeginXfer()
	sh.WriteBurst(0, 0, r)
	h.MergeShards()
	h.EndXfer()
	for c := 0; c < 8; c++ {
		fmt.Printf("   bank %d: % x   <- element %c intact\n", c, sys.BankBytes(c)[:8], 'A'+c)
	}

	fmt.Println("\n4. Cross-domain modulation (§ V-A3): one byte-level rotate of")
	fmt.Println("   the PIM-domain burst moves every element to the next bank")
	fmt.Println("   (this is _mm512_rol_epi64 on real hardware):")
	var u vec.Unit
	h.BeginXfer()
	burst := sh.ReadBurst(0, 0)
	burst = u.RotBanks(burst, 8, 1)
	sh.WriteBurst(0, 0, burst)
	h.MergeShards()
	h.EndXfer()
	for c := 0; c < 8; c++ {
		fmt.Printf("   bank %d: % x   <- element %c\n", c, sys.BankBytes(c)[:8], 'A'+(c+7)%8)
	}
	fmt.Println("\nNo domain transfer was needed for step 4 — that single fused")
	fmt.Println("shuffle is what eliminates DT from AlltoAll and AllGather.")
}

func printWords(label string, b []byte) {
	fmt.Printf("%s:", label)
	for e := 0; e < 8; e++ {
		fmt.Printf(" %c[% x]", 'A'+e, b[8*e:8*e+2])
	}
	fmt.Println(" ...")
}
