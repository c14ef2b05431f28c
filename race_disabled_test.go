//go:build !race

package gpudpf_test

const raceEnabled = false
