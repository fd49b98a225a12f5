package main

import (
	"bytes"
	"os"
	"testing"
)

// The demonstration prints exactly testdata/golden.txt: its bank dumps
// are the bus-order striping of § II-B, so a change in how bursts stripe
// or how the domain transfer permutes bytes shows up here as a diff.
func TestOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	run(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("pidlayout output differs from testdata/golden.txt:\n%s", got.Bytes())
	}
}
