//go:build amd64 && !purego

#include "textflag.h"

// Float64 kernels: the sequential simulator's per-step conv scatter and
// fire sweeps, 4 cells per 256-bit op (avx2 tier), and the conv scatter
// again at 8 cells per 512-bit op (avx512 tier).
//
// Numerics contract: every cell receives exactly the operations of the
// generic Go loops in kernels64.go — one rounded multiply and one add
// (VMULPD + VADDPD, never FMA), an ordered compare, a masked subtract —
// so the float64 trajectory is bit-identical on every tier.

// EVENT_TAPS loads the event at R12: Payload broadcast into pay (Y5 or
// Z5), the cursor over taps[tapStart[Index]:tapStart[Index+1]] in R11 and
// its length in CX; an event with no taps jumps to next.
#define EVENT_TAPS(next, pay) \
	MOVQ         0(R12), AX      \
	VBROADCASTSD 8(R12), pay     \
	MOVLQSX      0(R8)(AX*4), BX \
	MOVLQSX      4(R8)(AX*4), CX \
	SUBQ         BX, CX          \
	JLE          next            \
	LEAQ         (R10)(BX*8), R11

// SCATTER_ARGS loads the scatter kernels' shared arguments.
#define SCATTER_ARGS \
	MOVQ vmem+0(FP), DI      \
	MOVQ wsc+8(FP), SI       \
	MOVQ taps+16(FP), R10    \
	MOVQ tapStart+24(FP), R8 \
	MOVQ events+32(FP), R12  \
	MOVQ nev+40(FP), R13     \
	MOVQ outC+48(FP), R9

// TAP_BLOCK loads the tap at R11: its kernel row into BX and the start of
// its destination block, Base << shift bytes past vmem, into DX.
#define TAP_BLOCK(shift) \
	MOVLQSX 0(R11), BX     \
	MOVLQSX 4(R11), DX     \
	LEAQ    (SI)(BX*8), BX \
	SHLQ    $shift, DX     \
	ADDQ    DI, DX

// NEXT_TAP advances to the event's next tap, looping to tap.
#define NEXT_TAP(tap) \
	ADDQ $8, R11 \
	DECQ CX      \
	JNZ  tap

// NEXT_EVENT advances to the next event, looping to ev, and returns after
// the last.
#define NEXT_EVENT(ev) \
	ADDQ       $16, R12 \
	DECQ       R13      \
	JNZ        ev       \
	VZEROUPPER          \
	RET

// func convScatterEvents64AVX2(vmem, wsc *float64, taps *ConvTap, tapStart *int32, events *Event, nev, outC int)
// for each event, for each tap of taps[tapStart[Index]:tapStart[Index+1]]:
// vmem[Base*outC + i] += wsc[WOff+i] * Payload, i in [0,outC); nev >= 1
// and outC a positive multiple of 4. outC 8 and 16 run unrolled bodies
// (2 and 4 independent multiply/add/store chains per tap); any other
// width runs the counted loop. Same operations per cell either way.
TEXT ·convScatterEvents64AVX2(SB), NOSPLIT, $0-56
	SCATTER_ARGS
	CMPQ R9, $8
	JEQ  ev8
	CMPQ R9, $16
	JEQ  ev16
	SHLQ $3, R9                    // block bytes per base: outC * 8

evn:
	EVENT_TAPS(nextn, Y5)

tapn:
	MOVLQSX 0(R11), BX             // tap.WOff
	MOVLQSX 4(R11), DX             // tap.Base
	LEAQ    (SI)(BX*8), BX         // kernel row
	IMULQ   R9, DX
	ADDQ    DI, DX                 // destination block
	XORQ    AX, AX                 // byte offset into both

celln:
	VMULPD  (BX)(AX*1), Y5, Y0     // w * p, rounded once
	VADDPD  (DX)(AX*1), Y0, Y0
	VMOVUPD Y0, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R9
	JLT     celln
	NEXT_TAP(tapn)

nextn:
	NEXT_EVENT(evn)

ev8:
	EVENT_TAPS(next8, Y5)

tap8:
	TAP_BLOCK(6)                   // Base * 8 cells * 8 bytes
	VMULPD  0(BX), Y5, Y0
	VMULPD  32(BX), Y5, Y1
	VADDPD  0(DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	NEXT_TAP(tap8)

next8:
	NEXT_EVENT(ev8)

ev16:
	EVENT_TAPS(next16, Y5)

tap16:
	TAP_BLOCK(7)                   // Base * 16 cells * 8 bytes
	VMULPD  0(BX), Y5, Y0
	VMULPD  32(BX), Y5, Y1
	VMULPD  64(BX), Y5, Y2
	VMULPD  96(BX), Y5, Y3
	VADDPD  0(DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VADDPD  64(DX), Y2, Y2
	VADDPD  96(DX), Y3, Y3
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	NEXT_TAP(tap16)

next16:
	NEXT_EVENT(ev16)

// func convScatterEvents64AVX512(vmem, wsc *float64, taps *ConvTap, tapStart *int32, events *Event, nev, outC int)
// convScatterEvents64AVX2 on 8-cell ZMM registers: nev >= 1 and outC a
// positive multiple of 8. outC 8 is one multiply/add/store per tap and
// outC 16 two independent chains; any other width runs the counted loop.
// Separate VMULPD and VADDPD, as on avx2: never FMA.
TEXT ·convScatterEvents64AVX512(SB), NOSPLIT, $0-56
	SCATTER_ARGS
	CMPQ R9, $8
	JEQ  zev8
	CMPQ R9, $16
	JEQ  zev16
	SHLQ $3, R9                    // block bytes per base: outC * 8

zevn:
	EVENT_TAPS(znextn, Z5)

ztapn:
	MOVLQSX 0(R11), BX
	MOVLQSX 4(R11), DX
	LEAQ    (SI)(BX*8), BX
	IMULQ   R9, DX
	ADDQ    DI, DX
	XORQ    AX, AX

zcelln:
	VMULPD  (BX)(AX*1), Z5, Z0
	VADDPD  (DX)(AX*1), Z0, Z0
	VMOVUPD Z0, (DX)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, R9
	JLT     zcelln
	NEXT_TAP(ztapn)

znextn:
	NEXT_EVENT(zevn)

zev8:
	EVENT_TAPS(znext8, Z5)

ztap8:
	TAP_BLOCK(6)
	VMULPD  0(BX), Z5, Z0
	VADDPD  0(DX), Z0, Z0
	VMOVUPD Z0, 0(DX)
	NEXT_TAP(ztap8)

znext8:
	NEXT_EVENT(zev8)

zev16:
	EVENT_TAPS(znext16, Z5)

ztap16:
	TAP_BLOCK(7)
	VMULPD  0(BX), Z5, Z0
	VMULPD  64(BX), Z5, Z1
	VADDPD  0(DX), Z0, Z0
	VADDPD  64(DX), Z1, Z1
	VMOVUPD Z0, 0(DX)
	VMOVUPD Z1, 64(DX)
	NEXT_TAP(ztap16)

znext16:
	NEXT_EVENT(zev16)

// func fireCells64AVX2(v *float64, mask *uint64, n int, bias *float64, period int, bsc, th float64)
// The constant-threshold fire sweep over n cells (a multiple of 4):
// v += bias[c mod period]*bsc (bias nil: no add; period a multiple of
// 4), then th <= v (predicate 2, LE, ordered — NaN never fires, like the
// scalar >=) resets by subtraction and sets the cell's mask bit.
TEXT ·fireCells64AVX2(SB), NOSPLIT, $0-56
	MOVQ         v+0(FP), DI
	MOVQ         mask+8(FP), R13
	MOVQ         n+16(FP), R11
	MOVQ         bias+24(FP), R14
	MOVQ         period+32(FP), R9
	VBROADCASTSD bsc+40(FP), Y11
	VBROADCASTSD th+48(FP), Y0
	LEAQ         (R14)(R9*8), R9  // bias end
	MOVQ         R14, R12         // bias cursor
	XORQ         AX, AX           // mask word accumulator
	XORQ         CX, CX           // bit position

floop:
	TESTQ   R11, R11
	JZ      fdone
	VMOVUPD (DI), Y1
	TESTQ   R14, R14
	JZ      fnobias
	VMULPD  (R12), Y11, Y2        // bias * bsc, rounded once
	VADDPD  Y2, Y1, Y1
	ADDQ    $32, R12
	CMPQ    R12, R9
	CMOVQEQ R14, R12              // wrap at the period

fnobias:
	VCMPPD    $2, Y1, Y0, Y2      // Y2 = (th <= v) ? ^0 : 0
	VANDPD    Y0, Y2, Y3          // th where fired, else +0
	VSUBPD    Y3, Y1, Y1
	VMOVUPD   Y1, (DI)
	VMOVMSKPD Y2, DX
	SHLQ      CX, DX
	ORQ       DX, AX
	ADDQ      $32, DI
	ADDQ      $4, CX
	SUBQ      $4, R11
	CMPQ      CX, $64
	JLT       floop
	MOVQ      AX, (R13)           // mask word complete
	ADDQ      $8, R13
	XORQ      AX, AX
	XORQ      CX, CX
	JMP       floop

fdone:
	TESTQ CX, CX
	JZ    fend
	MOVQ  AX, (R13)               // flush the partial word

fend:
	VZEROUPPER
	RET

// func fireCellsBurst64AVX2(v, h, pay *float64, mask *uint64, n int, bias *float64, period int, bsc, beta, vth float64)
// The burst fire sweep (Eq. 8/9) over n cells (a multiple of 4) on the
// folded state h: g = h; th = g*vth; pay = th; fired = th <= v;
// h = fired ? beta*g : 1 (a sign-mask blend, exact because the compare
// result is all-ones or zero); v -= fired ? th : +0.
TEXT ·fireCellsBurst64AVX2(SB), NOSPLIT, $0-80
	MOVQ         v+0(FP), DI
	MOVQ         h+8(FP), SI
	MOVQ         pay+16(FP), R10
	MOVQ         mask+24(FP), R13
	MOVQ         n+32(FP), R11
	MOVQ         bias+40(FP), R14
	MOVQ         period+48(FP), R9
	VBROADCASTSD bsc+56(FP), Y11
	VBROADCASTSD beta+64(FP), Y13
	VBROADCASTSD vth+72(FP), Y14
	MOVQ         $0x3FF0000000000000, DX // 1.0
	VMOVQ        DX, X15
	VBROADCASTSD X15, Y15
	LEAQ         (R14)(R9*8), R9  // bias end
	MOVQ         R14, R12         // bias cursor
	XORQ         AX, AX           // mask word accumulator
	XORQ         CX, CX           // bit position

bloop:
	TESTQ   R11, R11
	JZ      bdone
	VMOVUPD (DI), Y1
	TESTQ   R14, R14
	JZ      bnobias
	VMULPD  (R12), Y11, Y2        // bias * bsc, rounded once
	VADDPD  Y2, Y1, Y1
	ADDQ    $32, R12
	CMPQ    R12, R9
	CMOVQEQ R14, R12              // wrap at the period

bnobias:
	VMOVUPD   (SI), Y2            // g
	VMULPD    Y14, Y2, Y3         // th = g * vth
	VMOVUPD   Y3, (R10)           // pay = th (unconditional)
	VCMPPD    $2, Y1, Y3, Y4      // fired = th <= v
	VMULPD    Y2, Y13, Y2         // beta * g
	VBLENDVPD Y4, Y2, Y15, Y2     // h = fired ? beta*g : 1
	VMOVUPD   Y2, (SI)
	VANDPD    Y4, Y3, Y3          // th where fired, else +0
	VSUBPD    Y3, Y1, Y1
	VMOVUPD   Y1, (DI)
	VMOVMSKPD Y4, DX
	SHLQ      CX, DX
	ORQ       DX, AX
	ADDQ      $32, DI
	ADDQ      $32, SI
	ADDQ      $32, R10
	ADDQ      $4, CX
	SUBQ      $4, R11
	CMPQ      CX, $64
	JLT       bloop
	MOVQ      AX, (R13)           // mask word complete
	ADDQ      $8, R13
	XORQ      AX, AX
	XORQ      CX, CX
	JMP       bloop

bdone:
	TESTQ CX, CX
	JZ    bend
	MOVQ  AX, (R13)               // flush the partial word

bend:
	VZEROUPPER
	RET
