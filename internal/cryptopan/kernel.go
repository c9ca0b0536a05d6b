package cryptopan

// kernel.go is the one place a walk pays for AES. A walk level's AES
// input is the 32-bit level word v&mask | padTop&^mask followed by the
// pad's last 12 bytes, which never change, and all the walk keeps of
// the output is its flip bit, the top bit of byte 0. flipBits takes a
// list of level words and returns their flip bits. On amd64 with
// AES-NI an assembly body runs eight blocks through AESENC together
// (one block's rounds are a chain, eight independent chains fill the
// unit's pipeline) on round keys expanded here once per key; elsewhere
// the same loop runs on crypto/aes one block per call. The reference
// walks the tests keep as their oracle call crypto/aes directly.

import (
	"encoding/binary"
	"math/bits"
)

// flipKernel is one key's AES-128 round keys, laid out as the assembly
// body reads them.
type flipKernel struct {
	first [16]byte     // round key 0 XOR the pad, whose bytes 0-3 are left out
	rk    [10][16]byte // round keys 1-10
}

// newFlipKernel expands key (16 bytes) for blocks that end in pad[4:].
func newFlipKernel(key []byte, pad *[16]byte) flipKernel {
	var rk [11][16]byte
	for i, w := range expandKey(key) {
		binary.BigEndian.PutUint32(rk[i/4][4*(i%4):], w)
	}
	k := flipKernel{rk: [10][16]byte(rk[1:])}
	copy(k.first[4:], pad[4:])
	for i := range k.first {
		k.first[i] ^= rk[0][i]
	}
	return k
}

// flipBits sets bits[k] to the flip bit of level word words[k]: the
// top bit of the AES encryption of words[k] (big-endian) followed by
// pad[4:]. bits must be as long as words. b is the scratch of the
// crypto/aes loop.
func (a *Anonymizer) flipBits(b *walkBuf, words []uint32, bits []uint8) {
	bits = bits[:len(words)]
	if useAESNI {
		flipBitsAESNI(&a.kernel, words, bits)
		return
	}
	copy(b.block[4:], a.pad[4:])
	for k, w := range words {
		binary.BigEndian.PutUint32(b.block[:4], w)
		a.cipher.Encrypt(b.out[:], b.block[:])
		bits[k] = b.out[0] >> 7
	}
}

// levelWords writes the level words of walk levels from..31 of address
// v into dst and returns how many it wrote, 32-from.
func levelWords(dst []uint32, v uint32, from int, padTop uint32) int {
	d := v ^ padTop
	mask := ^uint32(0) << (32 - uint(from))
	dst = dst[:32-from]
	for k := range dst {
		dst[k] = padTop ^ d&mask
		mask = mask>>1 | 1<<31
	}
	return len(dst)
}

// levelFlips gathers the flip bits of walk levels from..31, one byte
// each, where the walk result keeps them: level i at bit 31-i.
func levelFlips(bits []uint8, from int) (flips uint32) {
	for _, f := range bits[:32-from] {
		flips = flips<<1 | uint32(f)
	}
	return flips
}

// expandKey is the AES-128 key expansion of FIPS-197 §5.2: round key r
// is words 4r..4r+3.
func expandKey(key []byte) (w [44]uint32) {
	for i := 0; i < 4; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := byte(1)
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			t = bits.RotateLeft32(t, 8)
			t = uint32(sbox(byte(t>>24)))<<24 | uint32(sbox(byte(t>>16)))<<16 |
				uint32(sbox(byte(t>>8)))<<8 | uint32(sbox(byte(t)))
			t ^= uint32(rcon) << 24
			rcon = xtime(rcon)
		}
		w[i] = w[i-4] ^ t
	}
	return w
}

// sbox is the S-box of FIPS-197 §5.1.1: the multiplicative inverse in
// GF(2^8) (0 for 0), b^254, then the affine map.
func sbox(b byte) byte {
	inv := byte(1)
	for e, x := 254, b; e > 0; e >>= 1 {
		if e&1 != 0 {
			inv = gmul(inv, x)
		}
		x = gmul(x, x)
	}
	return inv ^ bits.RotateLeft8(inv, 1) ^ bits.RotateLeft8(inv, 2) ^
		bits.RotateLeft8(inv, 3) ^ bits.RotateLeft8(inv, 4) ^ 0x63
}

// gmul multiplies in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
func gmul(a, b byte) (p byte) {
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
	}
	return p
}

func xtime(a byte) byte { return a<<1 ^ (a>>7)*0x1b }
