package fuse

import (
	"reflect"
	"testing"
	"unsafe"

	"tcfpram/internal/isa"
)

// TestInstrLayout holds the load image to its size: isa.Instr is a 24-byte
// word the garbage collector never scans, and the per-PC table entry that
// embeds it stays within 48 bytes. A field that adds a pointer, slice,
// string, map or func to isa.Instr fails here rather than silently adding
// scan work for every cached instruction.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(isa.Instr{}); n > 24 {
		t.Errorf("isa.Instr is %d bytes, want at most 24", n)
	}
	if n := unsafe.Sizeof(Instr{}); n > 48 {
		t.Errorf("fuse.Instr is %d bytes, want at most 48", n)
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Func, reflect.Chan, reflect.Interface:
			t.Errorf("%s is a %s: isa.Instr must hold no pointers", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(isa.Instr{}), "isa.Instr")
}
