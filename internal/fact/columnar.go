package fact

import "encoding/binary"

// This file implements the columnar relation store behind Instance:
// per (relation, arity) the argument tuples live in flat parallel
// column slices (struct-of-arrays) of interned IDs, with a packed-key
// hash index for O(1) set semantics. Nothing here touches strings —
// membership, insertion and removal are pure integer work, which is
// what makes the fixpoint engines' dedup hot path allocation-free for
// duplicate derivations.

// colKey addresses one column group. Arity is part of the key so an
// instance may (as before) hold same-named facts of differing arities
// without their packed tuples colliding.
type colKey struct {
	rel   ID
	arity int32
}

// column stores all tuples of one (relation, arity) as parallel
// columns. Row order is insertion order; removal is swap-delete, so
// row indices are not stable across removals. The index maps a packed
// tuple to its row: a uint64 key for arity <= 2 (the common case —
// edges, unary flags), a packed byte-string key for wider tuples.
type column struct {
	arity int
	n     int
	cols  [][]ID // len(cols) == arity; all of length n
	k64   map[uint64]int32
	kstr  map[string]int32
}

func newColumn(arity int) *column {
	c := &column{arity: arity, cols: make([][]ID, arity)}
	if arity <= 2 {
		c.k64 = make(map[uint64]int32)
	} else {
		c.kstr = make(map[string]int32)
	}
	return c
}

func (c *column) rows() int { return c.n }

// key64 packs a tuple of arity <= 2 into one uint64. (Arity 0 — the
// zero Fact, representable though not constructible via New — packs
// to the single key 0.)
func key64(args []ID) uint64 {
	switch len(args) {
	case 0:
		return 0
	case 1:
		return uint64(args[0])
	}
	return uint64(args[0])<<32 | uint64(args[1])
}

// packTuple appends the little-endian encoding of the tuple to buf
// (used for the arity >= 3 index and scratch lookups).
func packTuple(buf []byte, args []ID) []byte {
	for _, id := range args {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// has reports whether the tuple is present.
func (c *column) has(args []ID) bool {
	if c.k64 != nil {
		_, ok := c.k64[key64(args)]
		return ok
	}
	var scratch [64]byte
	_, ok := c.kstr[string(packTuple(scratch[:0], args))]
	return ok
}

// add inserts the tuple if absent, reporting whether it was new. The
// IDs are copied into the columns; the caller keeps args.
func (c *column) add(args []ID) bool {
	row := int32(c.rows())
	if c.k64 != nil {
		k := key64(args)
		if _, ok := c.k64[k]; ok {
			return false
		}
		c.k64[k] = row
	} else {
		var scratch [64]byte
		k := packTuple(scratch[:0], args)
		if _, ok := c.kstr[string(k)]; ok {
			return false
		}
		c.kstr[string(k)] = row
	}
	for j := range c.cols {
		c.cols[j] = append(c.cols[j], args[j])
	}
	c.n++
	return true
}

// addNew inserts a tuple the caller asserts is absent, skipping the
// existence probe (one map hash instead of two). Inserting a
// duplicate through addNew corrupts the set.
func (c *column) addNew(args []ID) {
	row := int32(c.n)
	if c.k64 != nil {
		c.k64[key64(args)] = row
	} else {
		var scratch [64]byte
		c.kstr[string(packTuple(scratch[:0], args))] = row
	}
	for j := range c.cols {
		c.cols[j] = append(c.cols[j], args[j])
	}
	c.n++
}

// remove deletes the tuple if present (swap-delete), reporting whether
// it was there.
func (c *column) remove(args []ID) bool {
	var row int32
	if c.k64 != nil {
		k := key64(args)
		r, ok := c.k64[k]
		if !ok {
			return false
		}
		row = r
		delete(c.k64, k)
	} else {
		var scratch [64]byte
		k := packTuple(scratch[:0], args)
		r, ok := c.kstr[string(k)]
		if !ok {
			return false
		}
		row = r
		delete(c.kstr, string(k))
	}
	last := c.rows() - 1
	if int(row) != last {
		var movedArr [16]ID
		moved := movedArr[:0]
		for j := range c.cols {
			c.cols[j][row] = c.cols[j][last]
			moved = append(moved, c.cols[j][row])
		}
		if c.k64 != nil {
			c.k64[key64(moved)] = row
		} else {
			var scratch [64]byte
			c.kstr[string(packTuple(scratch[:0], moved))] = row
		}
	}
	for j := range c.cols {
		c.cols[j] = c.cols[j][:last]
	}
	c.n--
	return true
}

// rowArgs copies row i's tuple into a fresh slice.
func (c *column) rowArgs(i int) []ID {
	args := make([]ID, c.arity)
	for j := range c.cols {
		args[j] = c.cols[j][i]
	}
	return args
}

// fact materializes row i as a Fact. The args are copied: a returned
// Fact stays valid (and immutable) across later mutations of the
// column.
func (c *column) fact(rel ID, i int) Fact {
	return Fact{rel: rel, args: c.rowArgs(i)}
}

// each calls fn for every row in insertion order, stopping early on
// false. fn receives a scratch tuple valid only for the call.
func (c *column) each(fn func(args []ID) bool) {
	n := c.rows()
	scratch := make([]ID, c.arity)
	for i := 0; i < n; i++ {
		for j := range c.cols {
			scratch[j] = c.cols[j][i]
		}
		if !fn(scratch) {
			return
		}
	}
}

// clone returns an independent copy of the column.
func (c *column) clone() *column {
	out := &column{arity: c.arity, n: c.n, cols: make([][]ID, c.arity)}
	for j := range c.cols {
		out.cols[j] = append([]ID(nil), c.cols[j]...)
	}
	if c.k64 != nil {
		out.k64 = make(map[uint64]int32, len(c.k64))
		for k, v := range c.k64 {
			out.k64[k] = v
		}
	} else {
		out.kstr = make(map[string]int32, len(c.kstr))
		for k, v := range c.kstr {
			out.kstr[k] = v
		}
	}
	return out
}
