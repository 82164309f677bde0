package codegen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"tcfpram/internal/isa"
)

// corpusObjectsDigest is the SHA-256 of the TCFB objects of the corpus (see
// TestEncodeDigest).
const corpusObjectsDigest = "d7454b86d9ebdf4bda1b7a675bb081b246c4c0de756df1a43e613a5d34c7ac36"

// TestEncodeDigest pins the TCFB bytes of every testdata/*.te program: the
// SHA-256 over the objects in file order, each after its length. The
// compiler's code or the object format moving changes it; how Encode and
// Decode get to the bytes must not. Each object also decodes and encodes
// back to itself.
func TestEncodeDigest(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.te"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		c, err := CompileSource(filepath.Base(file), string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		obj := isa.Encode(c.Program)
		h.Write(binary.AppendUvarint(nil, uint64(len(obj))))
		h.Write(obj)
		p, err := isa.Decode(obj)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !bytes.Equal(isa.Encode(p), obj) {
			t.Errorf("%s: the decoded object encodes to other bytes", file)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusObjectsDigest {
		t.Errorf("corpus objects digest %s, want %s", got, corpusObjectsDigest)
	}
}
