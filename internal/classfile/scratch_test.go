package classfile

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPoolKeyDistinguishesFloatBitPatterns(t *testing.T) {
	p := NewConstPool()
	neg := p.AddFloat(float32(math.Copysign(0, -1)))
	pos := p.AddFloat(0)
	if neg == pos {
		t.Fatal("-0.0 and +0.0 interned to the same Float slot")
	}
	d1 := p.AddDouble(math.NaN())
	d2 := p.AddDouble(math.NaN())
	if d1 != d2 {
		t.Fatal("identical NaN bit patterns interned to different Double slots")
	}
}

func TestReleaseRecyclesScratchSafely(t *testing.T) {
	cf := buildScratchClass(t)
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Parse, capture strings that outlive the release, then recycle.
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	name, err := parsed.Pool.ClassName(parsed.ThisClass)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Release()
	if parsed.Pool != nil {
		t.Fatal("Release left cf.Pool set")
	}
	parsed.Release() // double release is a no-op

	// The retained string is still intact after the scratch is reused.
	for i := 0; i < 8; i++ {
		again, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("round-trip through recycled scratch diverged on iteration %d", i)
		}
		again.Release()
	}
	if name != "scratch/Demo" {
		t.Fatalf("retained string corrupted after recycle: %q", name)
	}
}

func buildScratchClass(t *testing.T) *ClassFile {
	t.Helper()
	pool := NewConstPool()
	cf := &ClassFile{
		MinorVersion: 3, MajorVersion: 45,
		Pool:        pool,
		AccessFlags: AccPublic | AccSuper,
	}
	cf.ThisClass = pool.AddClass("scratch/Demo")
	cf.SuperClass = pool.AddClass("java/lang/Object")
	pool.AddString(strings.Repeat("payload ", 16))
	pool.AddLong(1 << 40)
	pool.AddDouble(3.14)
	m := &Member{
		AccessFlags:     AccPublic | AccStatic,
		NameIndex:       pool.AddUtf8("run"),
		DescriptorIndex: pool.AddUtf8("(I)I"),
	}
	if err := cf.SetCode(m, &Code{MaxStack: 2, MaxLocals: 2, Bytecode: []byte{0x1a, 0xac}}); err != nil {
		t.Fatal(err)
	}
	cf.Methods = append(cf.Methods, m)
	return cf
}
