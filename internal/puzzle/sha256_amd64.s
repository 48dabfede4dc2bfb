// The SHA-256 compression loop below is adapted from blockSHANI in the Go
// standard library (crypto/internal/fips140/sha256/sha256block_amd64.s),
// which carries this notice:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
//
// Changes from the original: the kernel hashes exactly one balloon
// message, le64(cnt)‖a (40 B, one block) or le64(cnt)‖a‖b (72 B, two
// blocks), assembling the padded message words in registers from a and b
// instead of reading a caller's buffer; the state starts from the SHA-256
// IV and leaves as the big-endian digest; the round constants are a flat
// 64-entry table (stride 16, not the AVX2 path's duplicated stride-32
// layout); and the VEX-encoded moves became their SSE2 forms, so the
// kernel needs only SHA, SSSE3 and SSE4.1 (see hasSHANI).

//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func sha256Balloon(out *[32]byte, cnt uint64, a *[32]byte, b *[32]byte)
//
// sha256Balloon stores SHA-256(le64(cnt)‖a‖b) in out, or
// SHA-256(le64(cnt)‖a) when b is nil. out may alias a or b. a and b are
// loaded as the two 16-byte halves this kernel stores a digest in, so a
// block written by the previous call forwards from the store buffer;
// the message words are then assembled with shifts in registers.
// Requires: SHA, SSE2, SSE4.1, SSSE3
TEXT ·sha256Balloon(SB), NOSPLIT, $0-32
	MOVQ        out+0(FP), DI
	MOVQ        a+16(FP), SI
	MOVQ        b+24(FP), DX
	MOVOU       flipMask<>+0(SB), X8
	LEAQ        k256<>+0(SB), AX

	// X1 = ABEF and X2 = CDGH: the IV already in SHA256RNDS2 order.
	MOVOU       iv<>+0(SB), X1
	MOVOU       iv<>+16(SB), X2

	// First block, words 0-7: le64(cnt)‖a[0:8], a[8:24].
	MOVOU       (SI), X11
	MOVOU       16(SI), X12
	MOVQ        cnt+8(FP), X3
	PUNPCKLQDQ  X11, X3
	MOVO        X12, X4
	PALIGNR     $0x08, X11, X4
	MOVOU       pad<>+0(SB), X7
	TESTQ       DX, DX
	JNZ         twoBlocks

	// 40-byte message, words 8-15: a[24:32]‖0x80, then the bit length.
	MOVO        X12, X5
	PSRLDQ      $0x08, X5
	POR         X7, X5
	MOVOU       len40<>+0(SB), X6
	JMP         compress

twoBlocks:
	// 72-byte message, words 8-15: a[24:32]‖b[0:8], b[8:24]. The second
	// block's first words, b[24:32]‖0x80, wait in X11 and its bit length
	// in X12.
	MOVOU       (DX), X13
	MOVOU       16(DX), X14
	MOVO        X13, X5
	PALIGNR     $0x08, X12, X5
	MOVO        X14, X6
	PALIGNR     $0x08, X13, X6
	MOVO        X14, X11
	PSRLDQ      $0x08, X11
	POR         X7, X11
	MOVOU       len72<>+0(SB), X12

compress:
	// save hash values for addition after rounds
	MOVO        X1, X9
	MOVO        X2, X10

	// do rounds 0-59
	PSHUFB      X8, X3
	MOVO        X3, X0
	PADDD       (AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFB      X8, X4
	MOVO        X4, X0
	PADDD       16(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	PSHUFB      X8, X5
	MOVO        X5, X0
	PADDD       32(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	PSHUFB      X8, X6
	MOVO        X6, X0
	PADDD       48(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       64(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       80(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       96(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       112(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       128(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       144(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       160(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       176(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       192(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       208(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVO        X5, X0
	PADDD       224(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// do rounds 60-63
	MOVO        X6, X0
	PADDD       240(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// add current hash values with previously saved
	PADDD       X9, X1
	PADDD       X10, X2


	// a second block is pending while DX is non-nil
	TESTQ       DX, DX
	JZ          finish
	XORQ        DX, DX
	MOVO        X11, X3
	PXOR        X4, X4
	PXOR        X5, X5
	MOVO        X12, X6
	JMP         compress

finish:
	// put the state back in h0..h7 order, then byte-swap each word into
	// the big-endian digest
	PSHUFD      $0x1b, X1, X1
	PSHUFD      $0xb1, X2, X2
	MOVO        X1, X7
	PBLENDW     $0xf0, X2, X1
	PALIGNR     $0x08, X7, X2
	PSHUFB      X8, X1
	PSHUFB      X8, X2
	MOVOU       X1, (DI)
	MOVOU       X2, 16(DI)
	RET

// iv is the SHA-256 initial state h0..h7 laid out as ABEF (h5 h4 h1 h0)
// then CDGH (h7 h6 h3 h2), low lane first.
DATA iv<>+0(SB)/4, $0x9b05688c
DATA iv<>+4(SB)/4, $0x510e527f
DATA iv<>+8(SB)/4, $0xbb67ae85
DATA iv<>+12(SB)/4, $0x6a09e667
DATA iv<>+16(SB)/4, $0x5be0cd19
DATA iv<>+20(SB)/4, $0x1f83d9ab
DATA iv<>+24(SB)/4, $0xa54ff53a
DATA iv<>+28(SB)/4, $0x3c6ef372
GLOBL iv<>(SB), RODATA|NOPTR, $32

// flipMask byte-swaps each 32-bit lane.
DATA flipMask<>+0(SB)/8, $0x0405060700010203
DATA flipMask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// pad is the 0x80 padding marker in the upper half of a message word.
DATA pad<>+0(SB)/8, $0
DATA pad<>+8(SB)/8, $0x80
GLOBL pad<>(SB), RODATA|NOPTR, $16

// len40 and len72 are the last 16 bytes of the final padded block: the
// big-endian message length in bits (320 and 576).
DATA len40<>+0(SB)/8, $0
DATA len40<>+8(SB)/8, $0x4001000000000000
GLOBL len40<>(SB), RODATA|NOPTR, $16
DATA len72<>+0(SB)/8, $0
DATA len72<>+8(SB)/8, $0x4002000000000000
GLOBL len72<>(SB), RODATA|NOPTR, $16

// k256 holds the 64 SHA-256 round constants.
DATA k256<>+0(SB)/4, $0x428a2f98
DATA k256<>+4(SB)/4, $0x71374491
DATA k256<>+8(SB)/4, $0xb5c0fbcf
DATA k256<>+12(SB)/4, $0xe9b5dba5
DATA k256<>+16(SB)/4, $0x3956c25b
DATA k256<>+20(SB)/4, $0x59f111f1
DATA k256<>+24(SB)/4, $0x923f82a4
DATA k256<>+28(SB)/4, $0xab1c5ed5
DATA k256<>+32(SB)/4, $0xd807aa98
DATA k256<>+36(SB)/4, $0x12835b01
DATA k256<>+40(SB)/4, $0x243185be
DATA k256<>+44(SB)/4, $0x550c7dc3
DATA k256<>+48(SB)/4, $0x72be5d74
DATA k256<>+52(SB)/4, $0x80deb1fe
DATA k256<>+56(SB)/4, $0x9bdc06a7
DATA k256<>+60(SB)/4, $0xc19bf174
DATA k256<>+64(SB)/4, $0xe49b69c1
DATA k256<>+68(SB)/4, $0xefbe4786
DATA k256<>+72(SB)/4, $0x0fc19dc6
DATA k256<>+76(SB)/4, $0x240ca1cc
DATA k256<>+80(SB)/4, $0x2de92c6f
DATA k256<>+84(SB)/4, $0x4a7484aa
DATA k256<>+88(SB)/4, $0x5cb0a9dc
DATA k256<>+92(SB)/4, $0x76f988da
DATA k256<>+96(SB)/4, $0x983e5152
DATA k256<>+100(SB)/4, $0xa831c66d
DATA k256<>+104(SB)/4, $0xb00327c8
DATA k256<>+108(SB)/4, $0xbf597fc7
DATA k256<>+112(SB)/4, $0xc6e00bf3
DATA k256<>+116(SB)/4, $0xd5a79147
DATA k256<>+120(SB)/4, $0x06ca6351
DATA k256<>+124(SB)/4, $0x14292967
DATA k256<>+128(SB)/4, $0x27b70a85
DATA k256<>+132(SB)/4, $0x2e1b2138
DATA k256<>+136(SB)/4, $0x4d2c6dfc
DATA k256<>+140(SB)/4, $0x53380d13
DATA k256<>+144(SB)/4, $0x650a7354
DATA k256<>+148(SB)/4, $0x766a0abb
DATA k256<>+152(SB)/4, $0x81c2c92e
DATA k256<>+156(SB)/4, $0x92722c85
DATA k256<>+160(SB)/4, $0xa2bfe8a1
DATA k256<>+164(SB)/4, $0xa81a664b
DATA k256<>+168(SB)/4, $0xc24b8b70
DATA k256<>+172(SB)/4, $0xc76c51a3
DATA k256<>+176(SB)/4, $0xd192e819
DATA k256<>+180(SB)/4, $0xd6990624
DATA k256<>+184(SB)/4, $0xf40e3585
DATA k256<>+188(SB)/4, $0x106aa070
DATA k256<>+192(SB)/4, $0x19a4c116
DATA k256<>+196(SB)/4, $0x1e376c08
DATA k256<>+200(SB)/4, $0x2748774c
DATA k256<>+204(SB)/4, $0x34b0bcb5
DATA k256<>+208(SB)/4, $0x391c0cb3
DATA k256<>+212(SB)/4, $0x4ed8aa4a
DATA k256<>+216(SB)/4, $0x5b9cca4f
DATA k256<>+220(SB)/4, $0x682e6ff3
DATA k256<>+224(SB)/4, $0x748f82ee
DATA k256<>+228(SB)/4, $0x78a5636f
DATA k256<>+232(SB)/4, $0x84c87814
DATA k256<>+236(SB)/4, $0x8cc70208
DATA k256<>+240(SB)/4, $0x90befffa
DATA k256<>+244(SB)/4, $0xa4506ceb
DATA k256<>+248(SB)/4, $0xbef9a3f7
DATA k256<>+252(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256
