package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/isa"
)

func encodeInst(in *isa.Inst) []byte {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	EncodeInst(w, in)
	return buf.Bytes()
}

// rawInst encodes a record field by field, so a test can write register
// values no isa.Inst can hold.
func rawInst(pc uint64, class isa.Class, src1, src2, dest int) []byte {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	w.U64(pc)
	w.U8(uint8(class))
	w.Int(src1)
	w.Int(src2)
	w.Int(dest)
	w.U64(0)
	w.U8(0)
	w.Bool(false)
	w.U64(0)
	return buf.Bytes()
}

func TestDecodeInstRoundTrip(t *testing.T) {
	s := mustNew(t, "gcc")
	for i := 0; i < 2000; i++ {
		in, _ := s.Next()
		got, err := DecodeInst(codec.NewReader(bytes.NewReader(encodeInst(&in))))
		if err != nil {
			t.Fatalf("instruction %d (%s): %v", i, in.String(), err)
		}
		if got != in {
			t.Fatalf("instruction %d: decoded %s, encoded %s", i, got.String(), in.String())
		}
	}
}

// A register index is encoded as a full int. The decoder must reject
// one outside the register file before narrowing it to isa.Reg: 300
// would otherwise wrap to 44, a valid FP register.
func TestDecodeInstRejectsWideRegister(t *testing.T) {
	for _, tc := range []struct {
		name             string
		src1, src2, dest int
	}{
		{"src1", 300, isa.RegNone, 1},
		{"src2", 1, 300, 1},
		{"dest", 1, isa.RegNone, 300},
		{"negative", -2, isa.RegNone, 1},
		{"NumRegs", isa.NumRegs, isa.RegNone, 1},
	} {
		_, err := DecodeInst(codec.NewReader(bytes.NewReader(rawInst(0x40, isa.IntAlu, tc.src1, tc.src2, tc.dest))))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: decode error = %v, want out of range", tc.name, err)
		}
	}
	if _, err := DecodeInst(codec.NewReader(bytes.NewReader(rawInst(0x40, isa.IntAlu, isa.NumRegs-1, isa.RegNone, 0)))); err != nil {
		t.Errorf("highest register rejected: %v", err)
	}
}

// FuzzDecodeInst feeds arbitrary bytes to the checkpoint memo decoder.
// Anything it accepts must be a valid instruction whose encoding is
// exactly the bytes consumed; registers outside [RegNone, NumRegs) never
// survive decoding.
func FuzzDecodeInst(f *testing.F) {
	s, _ := New("twolf", 1)
	for i := 0; i < 8; i++ {
		in, _ := s.Next()
		f.Add(encodeInst(&in))
	}
	f.Add(rawInst(0x40, isa.IntAlu, 300, isa.RegNone, 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		in, err := DecodeInst(codec.NewReader(r))
		if err != nil {
			return
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("accepted an invalid instruction: %v", err)
		}
		for _, reg := range [...]isa.Reg{in.Src1, in.Src2, in.Dest} {
			if reg != isa.RegNone && (reg < 0 || reg >= isa.NumRegs) {
				t.Fatalf("accepted register %d", reg)
			}
		}
		consumed := b[:len(b)-r.Len()]
		if re := encodeInst(&in); !bytes.Equal(re, consumed) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, consumed)
		}
	})
}
