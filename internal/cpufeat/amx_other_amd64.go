//go:build amd64 && !purego && !linux

package cpufeat

// requestTileData: only Linux's permission call is wired up, so elsewhere
// the tile tier is absent.
func requestTileData() bool { return false }
