//go:build !amd64

package cryptopan

// useAESNI is false: there is no assembly body on this platform.
var useAESNI = false

func flipBitsAESNI(*flipKernel, []uint32, []uint8) { panic("cryptopan: no AES-NI body") }
