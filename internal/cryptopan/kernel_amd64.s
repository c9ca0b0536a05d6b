//go:build amd64

#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// LOAD puts the level word at off(SI) into X as a block after round
// key 0: the word byte-swapped, so that its top byte is block byte 0,
// XOR X9 (round key 0 XOR the pad, pad bytes 0-3 left out).
#define LOAD(off, X) \
	MOVL off(SI), R8; \
	BSWAPL R8; \
	MOVQ R8, X; \
	PXOR X9, X

// ROUND8 applies the round key at off(AX) to the eight blocks X0-X7.
#define ROUND8(op, off) \
	MOVOU off(AX), X8; \
	op X8, X0; \
	op X8, X1; \
	op X8, X2; \
	op X8, X3; \
	op X8, X4; \
	op X8, X5; \
	op X8, X6; \
	op X8, X7

// STORE writes X's flip bit, the top bit of its byte 0, to off(DI).
#define STORE(X, off) \
	PMOVMSKB X, R8; \
	ANDL $1, R8; \
	MOVB R8, off(DI)

// func flipBitsAESNI(k *flipKernel, words []uint32, bits []uint8)
TEXT ·flipBitsAESNI(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), AX
	MOVQ words_base+8(FP), SI
	MOVQ words_len+16(FP), CX
	MOVQ bits_base+32(FP), DI
	MOVOU 0(AX), X9

loop8:
	CMPQ CX, $8
	JB   tail
	LOAD(0, X0)
	LOAD(4, X1)
	LOAD(8, X2)
	LOAD(12, X3)
	LOAD(16, X4)
	LOAD(20, X5)
	LOAD(24, X6)
	LOAD(28, X7)
	ROUND8(AESENC, 16)
	ROUND8(AESENC, 32)
	ROUND8(AESENC, 48)
	ROUND8(AESENC, 64)
	ROUND8(AESENC, 80)
	ROUND8(AESENC, 96)
	ROUND8(AESENC, 112)
	ROUND8(AESENC, 128)
	ROUND8(AESENC, 144)
	ROUND8(AESENCLAST, 160)
	STORE(X0, 0)
	STORE(X1, 1)
	STORE(X2, 2)
	STORE(X3, 3)
	STORE(X4, 4)
	STORE(X5, 5)
	STORE(X6, 6)
	STORE(X7, 7)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JMP  loop8

tail:
	TESTQ CX, CX
	JZ    done
	MOVOU 16(AX), X1
	MOVOU 32(AX), X2
	MOVOU 48(AX), X3
	MOVOU 64(AX), X4
	MOVOU 80(AX), X5
	MOVOU 96(AX), X6
	MOVOU 112(AX), X7
	MOVOU 128(AX), X10
	MOVOU 144(AX), X11
	MOVOU 160(AX), X12

loop1:
	LOAD(0, X0)
	AESENC     X1, X0
	AESENC     X2, X0
	AESENC     X3, X0
	AESENC     X4, X0
	AESENC     X5, X0
	AESENC     X6, X0
	AESENC     X7, X0
	AESENC     X10, X0
	AESENC     X11, X0
	AESENCLAST X12, X0
	STORE(X0, 0)
	ADDQ $4, SI
	INCQ DI
	DECQ CX
	JNZ  loop1

done:
	RET
