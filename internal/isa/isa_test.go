package isa

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// Inst is the element of every trace memo chunk, so its size is memory
// a kept checkpoint pins; the field order packs it with no padding.
func TestInstIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 32 {
		t.Fatalf("isa.Inst is %d bytes, want 32", got)
	}
}

func TestClassLatenciesMatchTable1(t *testing.T) {
	// Table 1: integer: mul 3, div 20, all others 1;
	// FP: add/sub 2, mul 4, div 12, sqrt 24.
	want := map[Class]int{
		IntAlu: 1, IntMul: 3, IntDiv: 20,
		FpAdd: 2, FpMul: 4, FpDiv: 12, FpSqrt: 24,
		Load: 1, Store: 1, Branch: 1,
	}
	for c, lat := range want {
		if got := c.Latency(); got != lat {
			t.Errorf("%s latency = %d, want %d", c, got, lat)
		}
	}
}

func TestClassPipelined(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		want := c != IntDiv && c != FpDiv && c != FpSqrt
		if got := c.Pipelined(); got != want {
			t.Errorf("%s pipelined = %v, want %v", c, got, want)
		}
	}
}

func TestClassString(t *testing.T) {
	if IntAlu.String() != "IntAlu" {
		t.Errorf("IntAlu.String() = %q", IntAlu.String())
	}
	if got := Class(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range class string %q should mention the value", got)
	}
	if Class(200).Valid() {
		t.Error("Class(200).Valid() = true")
	}
}

func TestClassPredicates(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() || IntAlu.IsMem() || Branch.IsMem() {
		t.Error("IsMem classification wrong")
	}
	for _, c := range []Class{FpAdd, FpMul, FpDiv, FpSqrt} {
		if !c.IsFP() {
			t.Errorf("%s should be FP", c)
		}
	}
	for _, c := range []Class{IntAlu, IntMul, IntDiv, Load, Store, Branch} {
		if c.IsFP() {
			t.Errorf("%s should not be FP", c)
		}
	}
}

func TestRegisterHelpers(t *testing.T) {
	if IntReg(0) != 0 || IntReg(31) != 31 {
		t.Error("IntReg mapping wrong")
	}
	if FpReg(0) != 32 || FpReg(31) != 63 {
		t.Error("FpReg mapping wrong")
	}
	if RegName(3) != "r3" {
		t.Errorf("RegName(3) = %q", RegName(3))
	}
	if RegName(FpReg(5)) != "f5" {
		t.Errorf("RegName(f5) = %q", RegName(FpReg(5)))
	}
	if RegName(RegNone) != "-" {
		t.Errorf("RegName(RegNone) = %q", RegName(RegNone))
	}
	if RegName(99) == "" {
		t.Error("RegName out of range should still render")
	}
}

func TestRegisterHelpersPanic(t *testing.T) {
	for _, f := range []func(){
		func() { IntReg(-1) },
		func() { IntReg(32) },
		func() { FpReg(-1) },
		func() { FpReg(32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range register")
				}
			}()
			f()
		}()
	}
}

func TestInstHasDest(t *testing.T) {
	in := Inst{Class: IntAlu, Dest: 4}
	if !in.HasDest() {
		t.Error("dest r4 should count")
	}
	in.Dest = RegZero
	if in.HasDest() {
		t.Error("writes to r31 produce nothing")
	}
	in.Dest = RegNone
	if in.HasDest() {
		t.Error("RegNone is not a dest")
	}
}

func TestInstValidate(t *testing.T) {
	good := Inst{PC: 0x1000, Class: IntAlu, Src1: 1, Src2: 2, Dest: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid inst rejected: %v", err)
	}

	cases := []struct {
		name string
		in   Inst
	}{
		{"bad class", Inst{Class: NumClasses, Src1: RegNone, Src2: RegNone, Dest: RegNone}},
		{"reg out of range", Inst{Class: IntAlu, Src1: 64, Src2: RegNone, Dest: RegNone}},
		{"neg reg", Inst{Class: IntAlu, Src1: -7, Src2: RegNone, Dest: RegNone}},
		{"mem zero size", Inst{Class: Load, Src1: 1, Src2: RegNone, Dest: 2}},
		{"load no dest", Inst{Class: Load, Src1: 1, Src2: RegNone, Dest: RegNone, Size: 8}},
		{"taken branch no target", Inst{Class: Branch, Src1: 1, Src2: RegNone, Dest: RegNone, Taken: true}},
		{"store with dest", Inst{Class: Store, Src1: 1, Src2: 2, Dest: 3, Size: 8}},
	}
	for _, tc := range cases {
		if err := tc.in.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestInstString(t *testing.T) {
	ld := Inst{PC: 0x40, Class: Load, Src1: 1, Src2: RegNone, Dest: 2, Addr: 0x1000, Size: 8}
	if s := ld.String(); !strings.Contains(s, "Load") || !strings.Contains(s, "0x1000") {
		t.Errorf("load string %q", s)
	}
	br := Inst{PC: 0x44, Class: Branch, Src1: 1, Src2: RegNone, Dest: RegNone, Taken: true, Target: 0x80}
	if s := br.String(); !strings.Contains(s, "t ->") {
		t.Errorf("branch string %q", s)
	}
	alu := Inst{PC: 0x48, Class: IntAlu, Src1: 1, Src2: 2, Dest: 3}
	if s := alu.String(); !strings.Contains(s, "r3") {
		t.Errorf("alu string %q", s)
	}
}

// Property: RegName is total and unique over the architectural register file.
func TestRegNameUniqueProperty(t *testing.T) {
	seen := make(map[string]int)
	for r := 0; r < NumRegs; r++ {
		n := RegName(Reg(r))
		if prev, dup := seen[n]; dup {
			t.Fatalf("RegName collision: %d and %d both %q", prev, r, n)
		}
		seen[n] = r
	}
}

// Property: every class's latency is positive and bounded, and only
// unpipelined classes have latency > 4 except IntDiv-like long ops.
func TestLatencyPositiveProperty(t *testing.T) {
	f := func(raw uint8) bool {
		c := Class(raw % uint8(NumClasses))
		lat := c.Latency()
		return lat >= 1 && lat <= 24
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
