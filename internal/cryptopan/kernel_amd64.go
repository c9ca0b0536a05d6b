//go:build amd64

package cryptopan

// useAESNI selects the assembly body: CPUID leaf 1, ECX bit 25. Tests
// clear it to run the crypto/aes loop.
var useAESNI = cpuid1ECX()&(1<<25) != 0

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// flipBitsAESNI is flipBits on AES-NI: eight blocks at a time, then the
// rest one at a time. len(bits) must be len(words).
//
//go:noescape
func flipBitsAESNI(k *flipKernel, words []uint32, bits []uint8)
