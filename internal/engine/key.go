package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Key is a content hash naming one cached artifact. Two artifacts share a
// key exactly when every byte of input that can influence their value is
// identical, so a key is a complete description of the artifact and a hit
// can never change an output, only its cost.
type Key [sha256.Size]byte

// String renders the key's short hex form for logs and tests.
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// Hasher accumulates key material. Every part is length-prefixed before
// hashing, so ("ab","c") and ("a","bc") produce different keys — the key is
// a function of the part sequence, not of the concatenated bytes.
type Hasher struct {
	h hash.Hash
	// buf carries string parts into h, which only takes []byte: copying
	// through a fixed buffer costs no allocation, where []byte(s) would copy
	// every source into a fresh one.
	buf [256]byte
}

// NewKey starts a hasher for one artifact stage. The stage name partitions
// the key space, so a parse artifact and a report of the same source can
// never collide.
func NewKey(stage string) *Hasher {
	h := &Hasher{h: sha256.New()}
	return h.Str(stage)
}

// Str appends one string part.
func (h *Hasher) Str(s string) *Hasher {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.h.Write(n[:])
	for len(s) > 0 {
		k := copy(h.buf[:], s)
		h.h.Write(h.buf[:k])
		s = s[k:]
	}
	return h
}

// Int appends one integer part.
func (h *Hasher) Int(v int64) *Hasher {
	var n [9]byte
	n[0] = 0xb1 // tag byte distinguishing ints from string length prefixes
	binary.LittleEndian.PutUint64(n[1:], uint64(v))
	h.h.Write(n[:])
	return h
}

// Key finalizes the accumulated parts.
func (h *Hasher) Key() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}
