package types

import "testing"

func mkStruct(u *Universe, tag string, fields ...Field) *Type {
	t := u.NewRecord(tag, false)
	t.Record.Fields = fields
	t.Record.Complete = true
	return t
}

func mkUnion(u *Universe, tag string, fields ...Field) *Type {
	t := u.NewRecord(tag, true)
	t.Record.Fields = fields
	t.Record.Complete = true
	return t
}

func TestPredicates(t *testing.T) {
	u := NewUniverse()
	intT := u.Basic(Int)
	dblT := u.Basic(Double)
	ptrT := PointerTo(intT)
	arrT := ArrayOf(intT, 10)
	st := mkStruct(u, "S", Field{Name: "x", Type: intT, BitWidth: -1})

	if !intT.IsInteger() || !intT.IsArithmetic() || !intT.IsScalar() {
		t.Error("int predicates")
	}
	if !dblT.IsFloat() || dblT.IsInteger() {
		t.Error("double predicates")
	}
	if !ptrT.IsPointer() || !ptrT.IsScalar() || ptrT.IsArithmetic() {
		t.Error("pointer predicates")
	}
	if !arrT.IsAggregate() || arrT.IsScalar() {
		t.Error("array predicates")
	}
	if !st.IsRecord() || !st.IsAggregate() || !st.IsComplete() {
		t.Error("struct predicates")
	}
	if u.Basic(Void).IsComplete() {
		t.Error("void should be incomplete")
	}
	if !u.Basic(UInt).IsUnsigned() || u.Basic(Int).IsUnsigned() {
		t.Error("unsigned predicates")
	}
}

func TestDecay(t *testing.T) {
	u := NewUniverse()
	intT := u.Basic(Int)
	arr := ArrayOf(intT, 4)
	if d := arr.Decay(); d.Kind != Ptr || d.Elem != intT {
		t.Errorf("array decay = %s", d)
	}
	fn := FuncType(intT, nil, false, false)
	if d := fn.Decay(); d.Kind != Ptr || d.Elem != fn {
		t.Errorf("func decay = %s", d)
	}
	if intT.Decay() != intT {
		t.Error("int decay should be identity")
	}
}

func TestBasicCompatibility(t *testing.T) {
	u := NewUniverse()
	intT := u.Basic(Int)
	if !Compatible(intT, u.Basic(Int)) {
		t.Error("int vs int")
	}
	if Compatible(intT, u.Basic(Long)) {
		t.Error("int vs long should be incompatible")
	}
	if Compatible(intT, u.Basic(UInt)) {
		t.Error("int vs unsigned int should be incompatible")
	}
	// enum ↔ int per the paper's footnote.
	if !Compatible(intT, u.NewEnum("color")) {
		t.Error("int vs enum should be compatible")
	}
	if !Compatible(u.NewEnum("a"), u.NewEnum("b")) {
		t.Error("enum vs enum")
	}
}

func TestQualifierCompatibility(t *testing.T) {
	u := NewUniverse()
	intT := u.Basic(Int)
	cInt := Qualified(intT, QualConst)
	if Compatible(intT, cInt) {
		t.Error("int vs const int should be incompatible")
	}
	if !Compatible(cInt, Qualified(u.Basic(Int), QualConst)) {
		t.Error("const int vs const int")
	}
	vInt := Qualified(intT, QualVolatile)
	if Compatible(cInt, vInt) {
		t.Error("const int vs volatile int")
	}
}

func TestPointerCompatibility(t *testing.T) {
	u := NewUniverse()
	pi := PointerTo(u.Basic(Int))
	pl := PointerTo(u.Basic(Long))
	if !Compatible(pi, PointerTo(u.Basic(Int))) {
		t.Error("int* vs int*")
	}
	if Compatible(pi, pl) {
		t.Error("int* vs long* should be incompatible")
	}
	// Pointee qualifiers matter.
	pci := PointerTo(Qualified(u.Basic(Int), QualConst))
	if Compatible(pi, pci) {
		t.Error("int* vs const int* should be incompatible")
	}
}

func TestArrayCompatibility(t *testing.T) {
	u := NewUniverse()
	a10 := ArrayOf(u.Basic(Int), 10)
	a20 := ArrayOf(u.Basic(Int), 20)
	aU := ArrayOf(u.Basic(Int), -1)
	if Compatible(a10, a20) {
		t.Error("int[10] vs int[20]")
	}
	if !Compatible(a10, aU) {
		t.Error("int[10] vs int[] should be compatible")
	}
}

func TestStructCompatibility(t *testing.T) {
	u := NewUniverse()
	intT := u.Basic(Int)
	s1 := mkStruct(u, "S", Field{Name: "a", Type: intT, BitWidth: -1})
	if !Compatible(s1, s1) {
		t.Error("identical record")
	}
	// Same tag, same structure, different Record (other translation unit).
	s2 := mkStruct(u, "S", Field{Name: "a", Type: intT, BitWidth: -1})
	if !Compatible(s1, s2) {
		t.Error("structurally identical same-tag records should be compatible")
	}
	// Different tag.
	s3 := mkStruct(u, "T", Field{Name: "a", Type: intT, BitWidth: -1})
	if Compatible(s1, s3) {
		t.Error("different tags should be incompatible")
	}
	// Same tag, different field name.
	s4 := mkStruct(u, "S", Field{Name: "b", Type: intT, BitWidth: -1})
	if Compatible(s1, s4) {
		t.Error("different member names should be incompatible")
	}
	// Incomplete record with the same tag is compatible.
	inc := u.NewRecord("S", false)
	if !Compatible(s1, inc) {
		t.Error("incomplete same-tag record should be compatible")
	}
	// Struct vs union.
	un := mkUnion(u, "S", Field{Name: "a", Type: intT, BitWidth: -1})
	if Compatible(s1, un) {
		t.Error("struct vs union should be incompatible")
	}
}

func TestRecursiveStructCompatibility(t *testing.T) {
	u := NewUniverse()
	// struct node { struct node *next; } declared twice.
	mk := func() *Type {
		n := u.NewRecord("node", false)
		n.Record.Fields = []Field{{Name: "next", Type: PointerTo(n), BitWidth: -1}}
		n.Record.Complete = true
		return n
	}
	n1, n2 := mk(), mk()
	if !Compatible(n1, n2) {
		t.Error("recursive same-shape records should be compatible")
	}
}

// Comparisons that reach no pair of distinct complete records allocate
// nothing: the recursion guard's map is made on first use.
func TestCompatibleAllocatesOnlyForRecords(t *testing.T) {
	u := NewUniverse()
	intT, charT := u.Basic(Int), u.Basic(Char)
	pi, pc := PointerTo(intT), PointerTo(charT)
	f := FuncType(intT, []Param{{Type: pc}}, false, false)
	s1 := mkStruct(u, "S", Field{Name: "a", Type: intT, BitWidth: -1})
	for _, c := range []struct {
		a, b *Type
		want bool
	}{{intT, intT, true}, {intT, charT, false}, {pi, pi, true}, {pi, pc, false}, {f, f, true}, {s1, s1, true}} {
		if n := testing.AllocsPerRun(10, func() {
			if Compatible(c.a, c.b) != c.want || CompatibleLax(c.a, c.b) != c.want {
				t.Fatalf("Compatible(%v, %v) != %v", c.a, c.b, c.want)
			}
		}); n != 0 {
			t.Errorf("Compatible(%v, %v): %v allocations, want 0", c.a, c.b, n)
		}
	}
	s2 := mkStruct(u, "S", Field{Name: "a", Type: intT, BitWidth: -1})
	if !Compatible(s1, s2) || !CompatibleLax(PointerTo(s1), PointerTo(s2)) {
		t.Error("same-shape records should be compatible")
	}
}

func TestFuncCompatibility(t *testing.T) {
	u := NewUniverse()
	intT := u.Basic(Int)
	f1 := FuncType(intT, []Param{{Type: PointerTo(u.Basic(Char))}}, false, false)
	f2 := FuncType(intT, []Param{{Type: PointerTo(u.Basic(Char))}}, false, false)
	f3 := FuncType(intT, []Param{{Type: PointerTo(u.Basic(Int))}}, false, false)
	fOld := FuncType(intT, nil, false, true)
	if !Compatible(f1, f2) {
		t.Error("same signatures")
	}
	if Compatible(f1, f3) {
		t.Error("different param types")
	}
	if !Compatible(f1, fOld) {
		t.Error("old-style compatible with prototype")
	}
	fv := FuncType(intT, []Param{{Type: PointerTo(u.Basic(Char))}}, true, false)
	if Compatible(f1, fv) {
		t.Error("variadic vs non-variadic")
	}
}

func TestCommonInitialSequence(t *testing.T) {
	u := NewUniverse()
	intT := u.Basic(Int)
	pInt := PointerTo(intT)
	pChar := PointerTo(u.Basic(Char))

	// The paper's §4.3.3 example:
	// struct S { int *s1; int *s2; int *s3; }
	// struct T { int *t1; int *t2; char t3; int t4; }
	s := mkStruct(u, "S",
		Field{Name: "s1", Type: pInt, BitWidth: -1},
		Field{Name: "s2", Type: pInt, BitWidth: -1},
		Field{Name: "s3", Type: pInt, BitWidth: -1})
	tt := mkStruct(u, "T",
		Field{Name: "t1", Type: pInt, BitWidth: -1},
		Field{Name: "t2", Type: pInt, BitWidth: -1},
		Field{Name: "t3", Type: u.Basic(Char), BitWidth: -1},
		Field{Name: "t4", Type: intT, BitWidth: -1})

	pairs := CommonInitialSequence(s.Record, tt.Record)
	if len(pairs) != 2 {
		t.Fatalf("CIS length = %d, want 2", len(pairs))
	}
	for i, p := range pairs {
		if p.A != i || p.B != i {
			t.Errorf("pair %d = %+v", i, p)
		}
	}

	// No common initial sequence at all.
	w := mkStruct(u, "W",
		Field{Name: "w1", Type: pChar, BitWidth: -1})
	if got := CommonInitialSequence(s.Record, w.Record); len(got) != 0 {
		t.Errorf("CIS = %v, want empty", got)
	}

	// Bit-field widths must match.
	b1 := mkStruct(u, "B1",
		Field{Name: "f", Type: intT, BitWidth: 3})
	b2 := mkStruct(u, "B2",
		Field{Name: "f", Type: intT, BitWidth: 4})
	b3 := mkStruct(u, "B3",
		Field{Name: "f", Type: intT, BitWidth: 3})
	if got := CommonInitialSequence(b1.Record, b2.Record); len(got) != 0 {
		t.Errorf("bit-field widths differ, CIS = %v", got)
	}
	if got := CommonInitialSequence(b1.Record, b3.Record); len(got) != 1 {
		t.Errorf("equal bit-fields, CIS = %v", got)
	}
}

func TestComposite(t *testing.T) {
	u := NewUniverse()
	intT := u.Basic(Int)
	aU := ArrayOf(intT, -1)
	a10 := ArrayOf(intT, 10)
	c := Composite(aU, a10)
	if c.ArrayLen != 10 {
		t.Errorf("composite array len = %d", c.ArrayLen)
	}
	fOld := FuncType(intT, nil, false, true)
	fNew := FuncType(intT, []Param{{Type: intT}}, false, false)
	if got := Composite(fOld, fNew); got.Sig.OldStyle {
		t.Error("composite should take the prototype")
	}
}

func TestTypeString(t *testing.T) {
	u := NewUniverse()
	cases := []struct {
		typ  *Type
		want string
	}{
		{u.Basic(Int), "int"},
		{PointerTo(u.Basic(Char)), "char *"},
		{ArrayOf(u.Basic(Int), 4), "int [4]"},
		{mkStruct(u, "S"), "struct S"},
		{Qualified(u.Basic(Int), QualConst), "const int"},
	}
	for _, c := range cases {
		if got := c.typ.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
