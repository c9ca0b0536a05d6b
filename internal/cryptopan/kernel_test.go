package cryptopan

// kernel_test.go pins flipBits, both bodies of it, to FIPS-197's known
// answers and to crypto/aes on any key, pad and word list, and re-runs
// the reference-differential tests on the crypto/aes body.

import (
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExpandKeyFIPS197 is the key expansion of FIPS-197 Appendix A.1
// (its last word) and the last round key of Appendix C.1.
func TestExpandKeyFIPS197(t *testing.T) {
	w := expandKey(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if w[4] != 0xa0fafe17 || w[43] != 0xb6630ca6 {
		t.Errorf("A.1: w[4] = %08x, w[43] = %08x, want a0fafe17, b6630ca6", w[4], w[43])
	}
	w = expandKey(mustHex(t, "000102030405060708090a0b0c0d0e0f"))
	if got := [4]uint32(w[40:44]); got != [4]uint32{0x13111d7f, 0xe3944a17, 0xf307a78b, 0x4d2b30c5} {
		t.Errorf("C.1: round key 10 = %08x, want 13111d7f e3944a17 f307a78b 4d2b30c5", got)
	}
}

// TestFlipBitsFIPS197 is Appendix C.1: 00112233…ff under 000102…0f
// encrypts to 69c4e0d8…c55a. With that plaintext as the pad, level word
// 00112233 is that block, so its flip bit is the top bit of 0x69, on
// either body; one bit of the plaintext's first word flipped changes
// the block, and both bodies agree with crypto/aes on it.
func TestFlipBitsFIPS197(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	plain := mustHex(t, "00112233445566778899aabbccddeeff")
	want := mustHex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	c, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var got [16]byte
	c.Encrypt(got[:], plain)
	if string(got[:]) != string(want) {
		t.Fatalf("crypto/aes: %x, want %x", got, want)
	}
	a := &Anonymizer{cipher: c}
	copy(a.pad[:], plain)
	a.kernel = newFlipKernel(key, &a.pad)
	words := make([]uint32, 33)
	words[0] = binary.BigEndian.Uint32(plain)
	for i := 1; i < len(words); i++ {
		words[i] = words[0] ^ 1<<(i-1)
	}
	for _, aesni := range bodies() {
		bits := make([]uint8, len(words))
		onBody(aesni, func() { a.flipBits(new(walkBuf), words, bits) })
		if bits[0] != want[0]>>7 {
			t.Errorf("aesni=%v: flip bit of the C.1 block = %d, want %d", aesni, bits[0], want[0]>>7)
		}
		for i, w := range words {
			if ref := cipherFlip(c, &a.pad, w); bits[i] != ref {
				t.Errorf("aesni=%v: word %08x flip bit %d, crypto/aes %d", aesni, w, bits[i], ref)
			}
		}
	}
}

// cipherFlip is a level word's flip bit from crypto/aes.
func cipherFlip(c interface{ Encrypt(dst, src []byte) }, pad *[16]byte, word uint32) uint8 {
	var block, out [16]byte
	copy(block[4:], pad[4:])
	binary.BigEndian.PutUint32(block[:4], word)
	c.Encrypt(out[:], block[:])
	return out[0] >> 7
}

// bodies are the flipBits bodies this machine has: the crypto/aes
// loop, and AES-NI where the CPU has it.
func bodies() []bool {
	if useAESNI {
		return []bool{false, true}
	}
	return []bool{false}
}

// onBody runs f with flipBits on the AES-NI body or on crypto/aes.
func onBody(aesni bool, f func()) {
	saved := useAESNI
	useAESNI = aesni
	defer func() { useAESNI = saved }()
	f()
}

// FuzzFlipBitsMatchesCipher: for any key, pad and list of 0-40 level
// words, flipBits's bits equal crypto/aes's on both bodies, and it
// writes no bit past the list. Lists of 0-40 words reach the eight-wide
// body and every length of the one-block tail.
func FuzzFlipBitsMatchesCipher(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("fedcba9876543210"), []byte{})
	f.Add([]byte{}, []byte{}, []byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3})
	f.Add([]byte("key"), []byte("pad"), make([]byte, 4*40))
	f.Add([]byte("0123456789abcdef"), []byte("fedcba9876543210"), []byte("thirty-three bytes of level words"))
	f.Fuzz(func(t *testing.T, key, pad, raw []byte) {
		var k, p [16]byte
		copy(k[:], key)
		copy(p[:], pad)
		words := make([]uint32, min(len(raw)/4, 40))
		for i := range words {
			words[i] = binary.BigEndian.Uint32(raw[4*i:])
		}
		c, err := aes.NewCipher(k[:])
		if err != nil {
			t.Fatal(err)
		}
		a := &Anonymizer{cipher: c, pad: p, kernel: newFlipKernel(k[:], &p)}
		for _, aesni := range bodies() {
			bits := make([]uint8, len(words)+8)
			for i := range bits {
				bits[i] = 0xaa
			}
			onBody(aesni, func() { a.flipBits(new(walkBuf), words, bits[:len(words)]) })
			for i, w := range words {
				if ref := cipherFlip(c, &p, w); bits[i] != ref {
					t.Fatalf("aesni=%v: words[%d] = %08x: flip bit %d, crypto/aes %d", aesni, i, w, bits[i], ref)
				}
			}
			for i, b := range bits[len(words):] {
				if b != 0xaa {
					t.Fatalf("aesni=%v: wrote bits[%d] past %d words", aesni, len(words)+i, len(words))
				}
			}
		}
	})
}

// TestWalksWithoutAESNI re-runs the reference-differential tests with
// every walk on the crypto/aes body: the fallback is what a machine
// without AES-NI (or any other architecture) runs.
func TestWalksWithoutAESNI(t *testing.T) {
	onBody(false, func() {
		t.Run("within", TestWithinMatchesReference)
		t.Run("batch", TestAnonymizeBatchMatchesReference)
		t.Run("table", TestTableMatchesReferenceWalk)
		t.Run("inverse", TestInverseAgreement)
	})
}
