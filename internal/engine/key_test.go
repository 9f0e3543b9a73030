package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"
)

// TestKeyEncoding pins the key encoding: each string part is its length as
// a little-endian uint64 followed by its bytes, each integer part is the tag
// byte 0xb1 followed by its little-endian uint64, and the key is the sha256
// of the concatenation. Parts longer than the Hasher's copy buffer must hash
// exactly like short ones.
func TestKeyEncoding(t *testing.T) {
	long := strings.Repeat("class B { int f; }\n", 100) // several buffer lengths
	var want []byte
	str := func(s string) {
		want = binary.LittleEndian.AppendUint64(want, uint64(len(s)))
		want = append(want, s...)
	}
	str("stage")
	str("")
	str(long)
	n := int64(-7)
	want = append(want, 0xb1)
	want = binary.LittleEndian.AppendUint64(want, uint64(n))
	str("tail")

	got := NewKey("stage").Str("").Str(long).Int(n).Str("tail").Key()
	if got != Key(sha256.Sum256(want)) {
		t.Fatalf("key %s does not match the length-prefixed encoding", got)
	}
}
