//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 and AVX-512 tanh epilogues of a hidden IBP layer, each bitwise
// equal to its Go twin layer.epilogueGo: the same float64 operations in
// the same order, one row per lane.  Products and sums are separate
// VMULPD/VADDPD (never a fused multiply-add), x/2 is x·0.5 (both round
// x·2⁻¹ once), min and max see only finite values, where they agree with
// Go's builtins, and math.Copysign becomes an OR of x's sign bit, since
// the value it signs is positive.  The AVX-512 kernel uses AVX512F
// instructions only on its ZMM registers.

DATA epimask<>+0(SB)/8, $0x7fffffffffffffff
DATA epimask<>+8(SB)/8, $0.5
GLOBL epimask<>(SB), RODATA|NOPTR, $16

// CHORD(X) replaces the four pre-activation bounds in X with
// copysign(tanhChord(|x|) + tanhOffHalf, x).  The cell index is
// truncated to int32 (t ≤ 2560), doubled to index tanhCell's flat pairs,
// and each lane's pair (y_i, rise) is loaded whole; two unpacks turn the
// four pairs into the y and rise vectors.  Clobbers Y0, Y1, Y4–Y7, AX,
// R11–R13.
#define CHORD(X) \
	VANDPD Y14, X, Y0; \
	VMINPD Y10, Y0, Y0; \
	VMULPD Y9, Y0, Y0; \
	VCVTTPD2DQY Y0, X1; \
	VCVTDQ2PD X1, Y4; \
	VSUBPD Y4, Y0, Y4; \
	VPADDD X1, X1, X1; \
	VMOVQ X1, R11; \
	VPEXTRQ $1, X1, R12; \
	MOVL R11, R13; \
	SHRQ $32, R11; \
	MOVL R12, AX; \
	SHRQ $32, R12; \
	VMOVUPD (BX)(R13*8), X5; \
	VINSERTF128 $1, (BX)(AX*8), Y5, Y5; \
	VMOVUPD (BX)(R11*8), X6; \
	VINSERTF128 $1, (BX)(R12*8), Y6, Y6; \
	VUNPCKLPD Y6, Y5, Y7; \
	VUNPCKHPD Y6, Y5, Y5; \
	VMULPD Y5, Y4, Y4; \
	VADDPD Y4, Y7, Y4; \
	VADDPD Y13, Y4, Y4; \
	VANDNPD X, Y14, Y0; \
	VORPD Y0, Y4, X

// func tanhEpilogueAVX2(c, r, b, rowsum, gb []float64, s float64, point bool) float64
//
// Per four rows, as epilogueGo (lo = c, hi = r):
//   cj = lo + b;  rho = (hi + rowsum·s) + gb;  L = cj − rho;  H = cj + rho
//   L' = CHORD(L) − tanhOffMid;  H' = CHORD(H) + tanhOffMid
//   c = L'·0.5 + H'·0.5;  r = H'·0.5 − L'·0.5;  rmax = max(rmax, r)
TEXT ·tanhEpilogueAVX2(SB), NOSPLIT, $0-144
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ r_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ rowsum_base+72(FP), R9
	MOVQ gb_base+96(FP), R10
	VBROADCASTSD s+120(FP), Y15
	LEAQ ·tanhCell(SB), BX
	VBROADCASTSD epimask<>+0(SB), Y14
	VBROADCASTSD ·epilogueConst+0(SB), Y13 // tanhOffHalf
	VBROADCASTSD ·epilogueConst+8(SB), Y12 // tanhOffMid
	VBROADCASTSD ·epilogueConst+16(SB), Y10 // tanhRange
	VBROADCASTSD ·epilogueConst+24(SB), Y9 // tanhCellsPerUnit
	VBROADCASTSD epimask<>+8(SB), Y11
	VXORPD Y8, Y8, Y8
	SHRQ $2, CX
	JZ   epidone

epiloop:
	VMOVUPD (DI), Y0
	VADDPD  (R8), Y0, Y0      // cj
	VMULPD  (R9), Y15, Y1
	VADDPD  (SI), Y1, Y1
	VADDPD  (R10), Y1, Y1     // rho
	VSUBPD  Y1, Y0, Y2        // L
	VADDPD  Y1, Y0, Y3        // H
	CHORD(Y2)
	CHORD(Y3)
	VSUBPD  Y12, Y2, Y2
	VADDPD  Y12, Y3, Y3
	VMULPD  Y11, Y2, Y2
	VMULPD  Y11, Y3, Y3
	VADDPD  Y3, Y2, Y0
	VSUBPD  Y2, Y3, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (SI)
	VMAXPD  Y1, Y8, Y8
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ CX
	JNZ  epiloop

epidone:
	VXORPD X0, X0, X0
	CMPB point+128(FP), $0
	JEQ  epiret
	VEXTRACTF128 $1, Y8, X0
	VMAXPD X0, X8, X8
	VPERMILPD $1, X8, X0
	VMAXSD X0, X8, X0

epiret:
	VMOVSD X0, ret+136(FP)
	VZEROUPPER
	RET

// CHORD512(X) is CHORD on eight lanes in a ZMM register, with AVX512F
// instructions (VPANDQ, VPANDNQ and VPORQ for the bit operations).  Two
// VGATHERDPD fetch the lanes' y_i and rise through the doubled int32
// cell indices, each under a fresh all-ones mask in K1, which the gather
// clears.  Clobbers Z0, Z1, Z4, Z5, Z7 and K1.
#define CHORD512(X) \
	VPANDQ Z14, X, Z0; \
	VMINPD Z10, Z0, Z0; \
	VMULPD Z9, Z0, Z0; \
	VCVTTPD2DQ Z0, Y1; \
	VCVTDQ2PD Y1, Z4; \
	VSUBPD Z4, Z0, Z4; \
	VPADDD Y1, Y1, Y1; \
	KXNORW K1, K1, K1; \
	VGATHERDPD (BX)(Y1*8), K1, Z7; \
	KXNORW K1, K1, K1; \
	VGATHERDPD 8(BX)(Y1*8), K1, Z5; \
	VMULPD Z5, Z4, Z4; \
	VADDPD Z4, Z7, Z4; \
	VADDPD Z13, Z4, Z4; \
	VPANDNQ X, Z14, Z0; \
	VPORQ Z0, Z4, X

// func tanhEpilogueAVX512(c, r, b, rowsum, gb []float64, s float64, point bool) float64
//
// tanhEpilogueAVX2 on eight rows per iteration, in registers Z0–Z15
// and K1.
TEXT ·tanhEpilogueAVX512(SB), NOSPLIT, $0-144
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ r_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ rowsum_base+72(FP), R9
	MOVQ gb_base+96(FP), R10
	VBROADCASTSD s+120(FP), Z15
	LEAQ ·tanhCell(SB), BX
	VBROADCASTSD epimask<>+0(SB), Z14
	VBROADCASTSD ·epilogueConst+0(SB), Z13 // tanhOffHalf
	VBROADCASTSD ·epilogueConst+8(SB), Z12 // tanhOffMid
	VBROADCASTSD ·epilogueConst+16(SB), Z10 // tanhRange
	VBROADCASTSD ·epilogueConst+24(SB), Z9 // tanhCellsPerUnit
	VBROADCASTSD epimask<>+8(SB), Z11
	VPXORQ Z8, Z8, Z8
	SHRQ $3, CX
	JZ   epi512done

epi512loop:
	VMOVUPD (DI), Z0
	VADDPD  (R8), Z0, Z0      // cj
	VMULPD  (R9), Z15, Z1
	VADDPD  (SI), Z1, Z1
	VADDPD  (R10), Z1, Z1     // rho
	VSUBPD  Z1, Z0, Z2        // L
	VADDPD  Z1, Z0, Z3        // H
	CHORD512(Z2)
	CHORD512(Z3)
	VSUBPD  Z12, Z2, Z2
	VADDPD  Z12, Z3, Z3
	VMULPD  Z11, Z2, Z2
	VMULPD  Z11, Z3, Z3
	VADDPD  Z3, Z2, Z0
	VSUBPD  Z2, Z3, Z1
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (SI)
	VMAXPD  Z1, Z8, Z8
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	DECQ CX
	JNZ  epi512loop

epi512done:
	VXORPD X0, X0, X0
	CMPB point+128(FP), $0
	JEQ  epi512ret
	VEXTRACTF64X4 $1, Z8, Y0
	VMAXPD Y0, Y8, Y8
	VEXTRACTF128 $1, Y8, X0
	VMAXPD X0, X8, X8
	VPERMILPD $1, X8, X0
	VMAXSD X0, X8, X0

epi512ret:
	VMOVSD X0, ret+136(FP)
	VZEROUPPER
	RET
