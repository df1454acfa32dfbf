package classfile

import (
	"fmt"
	"math"
)

// ConstTag identifies the kind of a constant pool entry (JVM spec 4.4).
type ConstTag uint8

// Constant pool tags for the Java 1.2-era format.
const (
	TagUtf8               ConstTag = 1
	TagInteger            ConstTag = 3
	TagFloat              ConstTag = 4
	TagLong               ConstTag = 5
	TagDouble             ConstTag = 6
	TagClass              ConstTag = 7
	TagString             ConstTag = 8
	TagFieldref           ConstTag = 9
	TagMethodref          ConstTag = 10
	TagInterfaceMethodref ConstTag = 11
	TagNameAndType        ConstTag = 12
)

// String returns the spec name of the tag.
func (t ConstTag) String() string {
	switch t {
	case TagUtf8:
		return "Utf8"
	case TagInteger:
		return "Integer"
	case TagFloat:
		return "Float"
	case TagLong:
		return "Long"
	case TagDouble:
		return "Double"
	case TagClass:
		return "Class"
	case TagString:
		return "String"
	case TagFieldref:
		return "Fieldref"
	case TagMethodref:
		return "Methodref"
	case TagInterfaceMethodref:
		return "InterfaceMethodref"
	case TagNameAndType:
		return "NameAndType"
	}
	return fmt.Sprintf("Tag(%d)", uint8(t))
}

// Constant is one constant-pool entry. A single struct (rather than an
// interface per tag) keeps serialization, copying, and pool interning
// simple. Which fields are meaningful depends on Tag:
//
//	Utf8                     Str
//	Integer                  Int
//	Float                    Float
//	Long                     Long
//	Double                   Double
//	Class                    Ref1 = name_index (Utf8)
//	String                   Ref1 = string_index (Utf8)
//	Fieldref / Methodref /
//	InterfaceMethodref       Ref1 = class_index, Ref2 = name_and_type_index
//	NameAndType              Ref1 = name_index, Ref2 = descriptor_index
type Constant struct {
	Tag    ConstTag
	Str    string
	Int    int32
	Float  float32
	Long   int64
	Double float64
	Ref1   uint16
	Ref2   uint16

	// Lazy Utf8 state: the parser validates the modified-UTF8 bytes but
	// defers building the Go string until first touch. raw is kept even
	// after materialization so the encoder can reproduce non-canonical
	// encodings byte-for-byte regardless of what was touched.
	raw  []byte // original modified-UTF8 bytes (Utf8 entries from Parse)
	lazy bool   // raw is set and Str has not been decoded yet
}

// Wide reports whether the constant occupies two pool slots
// (Long and Double do, per the spec's famous design wart).
func (c Constant) Wide() bool { return c.Tag == TagLong || c.Tag == TagDouble }

// ConstPool holds the constant pool. Index 0 is reserved/invalid, exactly
// as on disk; Long and Double entries are followed by an unusable
// placeholder slot. The pool supports interning: the Add* methods return
// the index of an existing identical entry instead of growing the pool,
// which rewriting services rely on to keep transformed classes small.
type ConstPool struct {
	entries []Constant // entries[0] is a zero placeholder
	index   map[poolKey]uint16
	indexed bool // index covers all entries (built lazily after Parse)
}

// poolKey is the comparable interning key for a Constant. A struct key
// keeps intern lookups allocation-free (the previous string keys paid a
// fmt.Sprintf per probe, which dominated rewrite-path allocations).
// Float/Double values are keyed by their bit patterns via the num field
// so that distinct NaN payloads stay distinct and -0 != +0, matching
// exact on-disk representation.
type poolKey struct {
	tag  ConstTag
	ref1 uint16
	ref2 uint16
	str  string
	num  uint64
}

// NewConstPool returns an empty pool (containing only the reserved slot 0).
func NewConstPool() *ConstPool {
	return &ConstPool{entries: make([]Constant, 1), index: make(map[poolKey]uint16), indexed: true}
}

// Size returns the constant_pool_count value: number of slots including
// the reserved zeroth slot and Long/Double placeholders.
func (p *ConstPool) Size() int { return len(p.entries) }

// Valid reports whether idx names a usable entry (non-zero, in range, and
// not the dead second slot of a Long/Double).
func (p *ConstPool) Valid(idx uint16) bool {
	if idx == 0 || int(idx) >= len(p.entries) {
		return false
	}
	return p.entries[idx].Tag != 0
}

// Entry returns the constant at idx. It returns an error rather than
// panicking so that phase-1 verification can report malformed indices in
// hostile classfiles gracefully. Touching a lazy Utf8 entry materializes
// its string; callers that only need the tag should use Tag, which
// decodes nothing.
func (p *ConstPool) Entry(idx uint16) (Constant, error) {
	if !p.Valid(idx) {
		return Constant{}, formatErrf(-1, "invalid constant pool index %d (pool size %d)", idx, len(p.entries))
	}
	if p.entries[idx].lazy {
		p.materialize(&p.entries[idx])
	}
	return p.entries[idx], nil
}

// materialize decodes a lazy Utf8 entry's string in place. The raw bytes
// are kept so the encoder still splices the original representation.
func (p *ConstPool) materialize(c *Constant) {
	s, ok := decodeModifiedUTF8(c.raw)
	if !ok {
		// Unreachable for parsed pools: Parse validated the bytes.
		s = string(c.raw)
	}
	c.Str = s
	c.lazy = false
	statUtf8Decoded.Add(1)
}

// ensureIndex builds the interning index on first use, decoding every
// lazy Utf8 entry it keys on. Parsing defers both string decoding and
// index construction; a class that no filter adds constants to never
// pays for either.
func (p *ConstPool) ensureIndex() {
	if p.indexed {
		return
	}
	for i := range p.entries {
		if p.entries[i].lazy {
			p.materialize(&p.entries[i])
		}
	}
	p.rebuildIndex()
	p.indexed = true
}

// Tag returns the tag at idx, or 0 if the index is invalid.
func (p *ConstPool) Tag(idx uint16) ConstTag {
	if !p.Valid(idx) {
		return 0
	}
	return p.entries[idx].Tag
}

// Utf8 resolves idx as a Utf8 constant.
func (p *ConstPool) Utf8(idx uint16) (string, error) {
	c, err := p.Entry(idx)
	if err != nil {
		return "", err
	}
	if c.Tag != TagUtf8 {
		return "", formatErrf(-1, "constant %d is %s, want Utf8", idx, c.Tag)
	}
	return c.Str, nil
}

// ClassName resolves idx as a Class constant and returns the referenced
// internal class name.
func (p *ConstPool) ClassName(idx uint16) (string, error) {
	c, err := p.Entry(idx)
	if err != nil {
		return "", err
	}
	if c.Tag != TagClass {
		return "", formatErrf(-1, "constant %d is %s, want Class", idx, c.Tag)
	}
	return p.Utf8(c.Ref1)
}

// NameAndType resolves idx as a NameAndType constant, returning the name
// and descriptor strings.
func (p *ConstPool) NameAndType(idx uint16) (name, desc string, err error) {
	c, err := p.Entry(idx)
	if err != nil {
		return "", "", err
	}
	if c.Tag != TagNameAndType {
		return "", "", formatErrf(-1, "constant %d is %s, want NameAndType", idx, c.Tag)
	}
	if name, err = p.Utf8(c.Ref1); err != nil {
		return "", "", err
	}
	if desc, err = p.Utf8(c.Ref2); err != nil {
		return "", "", err
	}
	return name, desc, nil
}

// MemberRef is the resolved form of a Fieldref, Methodref, or
// InterfaceMethodref constant.
type MemberRef struct {
	Class string // internal class name owning the member
	Name  string
	Desc  string
}

func (r MemberRef) String() string { return r.Class + "." + r.Name + r.Desc }

// Ref resolves idx as a member reference constant of any of the three
// reference tags.
func (p *ConstPool) Ref(idx uint16) (MemberRef, error) {
	c, err := p.Entry(idx)
	if err != nil {
		return MemberRef{}, err
	}
	switch c.Tag {
	case TagFieldref, TagMethodref, TagInterfaceMethodref:
	default:
		return MemberRef{}, formatErrf(-1, "constant %d is %s, want a member reference", idx, c.Tag)
	}
	cls, err := p.ClassName(c.Ref1)
	if err != nil {
		return MemberRef{}, err
	}
	name, desc, err := p.NameAndType(c.Ref2)
	if err != nil {
		return MemberRef{}, err
	}
	return MemberRef{Class: cls, Name: name, Desc: desc}, nil
}

// StringValue resolves idx as a String constant and returns its text.
func (p *ConstPool) StringValue(idx uint16) (string, error) {
	c, err := p.Entry(idx)
	if err != nil {
		return "", err
	}
	if c.Tag != TagString {
		return "", formatErrf(-1, "constant %d is %s, want String", idx, c.Tag)
	}
	return p.Utf8(c.Ref1)
}

// append adds a raw entry (no interning) and returns its index.
// It is used by the parser, which must preserve on-disk indices.
func (p *ConstPool) append(c Constant) (uint16, error) {
	idx := len(p.entries)
	if c.Wide() {
		if idx+1 > 0xFFFF {
			return 0, formatErrf(-1, "constant pool overflow")
		}
		p.entries = append(p.entries, c, Constant{})
	} else {
		if idx > 0xFFFF {
			return 0, formatErrf(-1, "constant pool overflow")
		}
		p.entries = append(p.entries, c)
	}
	return uint16(idx), nil
}

func (p *ConstPool) intern(key poolKey, c Constant) uint16 {
	p.ensureIndex()
	if idx, ok := p.index[key]; ok {
		return idx
	}
	idx, err := p.append(c)
	if err != nil {
		// Pools this large are rejected during parsing; builders that
		// overflow 65535 entries are programming errors.
		panic(err)
	}
	p.index[key] = idx
	return idx
}

// rebuildIndex populates the interning map from the entry slice, so that
// rewriters reuse the class's own entries. Callers must have
// materialized lazy Utf8 strings first (keyOf keys Utf8 entries by Str).
func (p *ConstPool) rebuildIndex() {
	if p.index == nil {
		p.index = make(map[poolKey]uint16, len(p.entries))
	}
	for i := len(p.entries) - 1; i >= 1; i-- {
		c := p.entries[i]
		if key, ok := p.keyOf(c); ok {
			p.index[key] = uint16(i)
		}
	}
}

func (p *ConstPool) keyOf(c Constant) (poolKey, bool) {
	switch c.Tag {
	case TagUtf8:
		return poolKey{tag: TagUtf8, str: c.Str}, true
	case TagInteger:
		return poolKey{tag: TagInteger, num: uint64(uint32(c.Int))}, true
	case TagFloat:
		return poolKey{tag: TagFloat, num: uint64(math.Float32bits(c.Float))}, true
	case TagLong:
		return poolKey{tag: TagLong, num: uint64(c.Long)}, true
	case TagDouble:
		return poolKey{tag: TagDouble, num: math.Float64bits(c.Double)}, true
	case TagClass, TagString:
		return poolKey{tag: c.Tag, ref1: c.Ref1}, true
	case TagNameAndType, TagFieldref, TagMethodref, TagInterfaceMethodref:
		return poolKey{tag: c.Tag, ref1: c.Ref1, ref2: c.Ref2}, true
	}
	return poolKey{}, false
}

// AddUtf8 interns a Utf8 constant and returns its index.
func (p *ConstPool) AddUtf8(s string) uint16 {
	return p.intern(poolKey{tag: TagUtf8, str: s}, Constant{Tag: TagUtf8, Str: s})
}

// AddInteger interns an Integer constant.
func (p *ConstPool) AddInteger(v int32) uint16 {
	return p.intern(poolKey{tag: TagInteger, num: uint64(uint32(v))}, Constant{Tag: TagInteger, Int: v})
}

// AddFloat interns a Float constant.
func (p *ConstPool) AddFloat(v float32) uint16 {
	return p.intern(poolKey{tag: TagFloat, num: uint64(math.Float32bits(v))}, Constant{Tag: TagFloat, Float: v})
}

// AddLong interns a Long constant (occupies two slots).
func (p *ConstPool) AddLong(v int64) uint16 {
	return p.intern(poolKey{tag: TagLong, num: uint64(v)}, Constant{Tag: TagLong, Long: v})
}

// AddDouble interns a Double constant (occupies two slots).
func (p *ConstPool) AddDouble(v float64) uint16 {
	return p.intern(poolKey{tag: TagDouble, num: math.Float64bits(v)}, Constant{Tag: TagDouble, Double: v})
}

// AddClass interns a Class constant for the given internal name.
func (p *ConstPool) AddClass(name string) uint16 {
	ni := p.AddUtf8(name)
	return p.intern(poolKey{tag: TagClass, ref1: ni}, Constant{Tag: TagClass, Ref1: ni})
}

// AddString interns a String constant with the given text.
func (p *ConstPool) AddString(s string) uint16 {
	si := p.AddUtf8(s)
	return p.intern(poolKey{tag: TagString, ref1: si}, Constant{Tag: TagString, Ref1: si})
}

// AddNameAndType interns a NameAndType constant.
func (p *ConstPool) AddNameAndType(name, desc string) uint16 {
	ni := p.AddUtf8(name)
	di := p.AddUtf8(desc)
	return p.intern(poolKey{tag: TagNameAndType, ref1: ni, ref2: di}, Constant{Tag: TagNameAndType, Ref1: ni, Ref2: di})
}

// AddFieldref interns a Fieldref constant.
func (p *ConstPool) AddFieldref(class, name, desc string) uint16 {
	ci := p.AddClass(class)
	nt := p.AddNameAndType(name, desc)
	return p.intern(poolKey{tag: TagFieldref, ref1: ci, ref2: nt}, Constant{Tag: TagFieldref, Ref1: ci, Ref2: nt})
}

// AddMethodref interns a Methodref constant.
func (p *ConstPool) AddMethodref(class, name, desc string) uint16 {
	ci := p.AddClass(class)
	nt := p.AddNameAndType(name, desc)
	return p.intern(poolKey{tag: TagMethodref, ref1: ci, ref2: nt}, Constant{Tag: TagMethodref, Ref1: ci, Ref2: nt})
}

// AddInterfaceMethodref interns an InterfaceMethodref constant.
func (p *ConstPool) AddInterfaceMethodref(class, name, desc string) uint16 {
	ci := p.AddClass(class)
	nt := p.AddNameAndType(name, desc)
	return p.intern(poolKey{tag: TagInterfaceMethodref, ref1: ci, ref2: nt}, Constant{Tag: TagInterfaceMethodref, Ref1: ci, Ref2: nt})
}
