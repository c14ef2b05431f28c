//go:build linux && amd64 && !purego

package cpufeat

import "syscall"

// requestTileData asks Linux for permission to use AMX tile data
// (arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)): the 8 KiB of tile
// state is off for every process until it asks, and the first tile
// instruction without the grant is a SIGILL. The grant covers the whole
// process, threads started later included. Any errno — a kernel before
// 5.16, a sandbox filtering the call, a signal stack too small for the
// larger frame — leaves the tier absent.
func requestTileData() bool {
	const archReqXcompPerm, xfeatureXTileData = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXTileData, 0)
	return errno == 0
}
