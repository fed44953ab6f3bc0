//go:build !amd64

package gf256

// useSIMD is false: this platform has no vector kernel, so MulAddSlice
// always runs the table kernel.
var useSIMD = false

func initSIMD() {}

func mulAddSIMD(c byte, dst, src []byte) int { return 0 }
