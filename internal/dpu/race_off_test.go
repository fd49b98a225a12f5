//go:build !race

package dpu

const raceEnabled = false
