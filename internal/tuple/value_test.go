package tuple

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// pointerWords counts the words of t the garbage collector treats as
// pointers.
func pointerWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.String, reflect.Slice:
		return 1 // string and slice headers carry one data pointer
	case reflect.Interface:
		return 2
	case reflect.Array:
		return t.Len() * pointerWords(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += pointerWords(t.Field(i).Type)
		}
		return n
	}
	return 0
}

// TestValueLayout pins what the decode path's cost rests on: a Value is
// three words of which one is a pointer, nothing in it is exported, and it
// cannot be compared with ==.
func TestValueLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	rt := reflect.TypeOf(Value{})
	if got := pointerWords(rt); got != 1 {
		t.Fatalf("Value holds %d pointer words, want exactly 1", got)
	}
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.IsExported() {
			t.Errorf("Value field %s is exported", f.Name)
		}
	}
	if rt.Comparable() {
		t.Error("Value is comparable: == would compare payload pointers, not payloads")
	}
}

// TestNumericAccessorsReadRawBits pins the branch-free accessors: they
// return the stored bits whatever the kind.
func TestNumericAccessorsReadRawBits(t *testing.T) {
	if got, want := Float(1.5).AsInt(), int64(math.Float64bits(1.5)); got != want {
		t.Errorf("Float(1.5).AsInt() = %d, want the bit pattern %d", got, want)
	}
	if got := Int(1).AsFloat(); got != math.Float64frombits(1) {
		t.Errorf("Int(1).AsFloat() = %g, want %g", got, math.Float64frombits(1))
	}
	if !Int(2).AsBool() || !Float(0.5).AsBool() || Int(0).AsBool() {
		t.Error("AsBool should be true exactly when the stored bits are non-zero")
	}
	if Bool(true).AsInt() != 1 || Bool(false).AsInt() != 0 {
		t.Error("a bool stores 1 or 0")
	}
	for _, v := range []Value{Nil(), String("17"), Bytes([]byte{1})} {
		if v.AsInt() != 0 || v.AsFloat() != 0 || v.AsBool() {
			t.Errorf("%v: numeric accessors of a non-numeric value should read 0", v)
		}
	}
}

// TestPayloadAccessorsCheckKind: the shared pointer word must never hand a
// string's bytes out as a mutable slice, or a slice's as a string.
func TestPayloadAccessorsCheckKind(t *testing.T) {
	if got := String("abc").AsBytes(); got != nil {
		t.Errorf("String.AsBytes() = %v, want nil", got)
	}
	if got := Bytes([]byte("abc")).AsString(); got != "" {
		t.Errorf("Bytes.AsString() = %q, want \"\"", got)
	}
	if Int(7).AsString() != "" || Int(7).AsBytes() != nil {
		t.Error("an int has no payload")
	}
	if String("abc").Equal(Bytes([]byte("abc"))) {
		t.Error("a string equals a byte slice of the same content")
	}
}

func TestEmptyBytesForms(t *testing.T) {
	decoded, _, err := Decode(Encode(New(Bytes(nil))))
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	arenaDecoded, _, err := DecodeInto(Encode(New(Bytes([]byte{}))), &a)
	if err != nil {
		t.Fatal(err)
	}
	if Bytes(nil).AsBytes() != nil {
		t.Error("Bytes(nil).AsBytes() should stay nil")
	}
	if b := Bytes([]byte{}).AsBytes(); b == nil || len(b) != 0 {
		t.Errorf("Bytes([]byte{}).AsBytes() = %#v, want non-nil and empty", b)
	}
	forms := []Value{Bytes(nil), Bytes([]byte{}), decoded.Field(0), arenaDecoded.Field(0)}
	for i, v := range forms {
		if v.Kind() != KindBytes || len(v.AsBytes()) != 0 {
			t.Fatalf("form %d: %v is not an empty bytes value", i, v)
		}
		for j, w := range forms {
			if !v.Equal(w) {
				t.Errorf("empty bytes forms %d and %d are not Equal", i, j)
			}
		}
	}
}

func TestAsBytesCapacityIsLength(t *testing.T) {
	backing := []byte("payload|producer's spare capacity")
	got := Bytes(backing[:7]).AsBytes()
	if len(got) != 7 || cap(got) != 7 {
		t.Fatalf("len %d cap %d, want 7 and 7", len(got), cap(got))
	}
	if &got[0] != &backing[0] {
		t.Fatal("Bytes copied its argument")
	}
	_ = append(got, '!')
	if backing[7] != '|' {
		t.Fatal("append through AsBytes wrote into the producer's spare capacity")
	}
	var a Arena
	dec, _, err := DecodeInto(Encode(New(Bytes(backing[:7]))), &a)
	if err != nil {
		t.Fatal(err)
	}
	if b := dec.Field(0).AsBytes(); cap(b) != len(b) {
		t.Fatalf("decoded bytes: len %d cap %d", len(b), cap(b))
	}
}

func TestPayloadLenRefusesFourGiB(t *testing.T) {
	if got := payloadLen(math.MaxUint32); got != math.MaxUint32 {
		t.Fatalf("payloadLen(MaxUint32) = %d", got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "4294967296-byte payload exceeds the 4 GiB limit") {
			t.Fatalf("panic message %q does not name the size and the limit", msg)
		}
	}()
	payloadLen(math.MaxUint32 + 1)
	t.Fatal("payloadLen accepted a 4 GiB payload")
}
