package protocol

import (
	"fmt"

	"ppclust/internal/alphabet"
	"ppclust/internal/editdist"
	"ppclust/internal/rng"
)

// The alphanumeric protocol as it stood before the chunk slab and the fused
// kernel (commit d84a373), kept as the reference the engine is compared
// with: a SymbolMatrix allocated per string pair, differences reduced with
// integer division, and the third party's three passes over every matrix —
// Validate, strip the masks into a materialised CCM, run the DP over it.

func oracleSub(a *alphabet.Alphabet, x, y alphabet.Symbol) alphabet.Symbol {
	n := a.Size()
	return alphabet.Symbol(((int(x)-int(y))%n + n) % n)
}

// oracleAlphaInitiator masks every string symbol by symbol from jt,
// re-initializing it after each string.
func oracleAlphaInitiator(strings []SymbolString, a *alphabet.Alphabet, jt rng.Stream) []SymbolString {
	out := make([]SymbolString, len(strings))
	for m, s := range strings {
		for _, sym := range s {
			out[m] = append(out[m], alphabet.Symbol((int(sym)+rng.Symbol(jt, a.Size()))%a.Size()))
		}
		jt.Reseed()
	}
	return out
}

func oracleAlphaResponder(own, disguised []SymbolString, a *alphabet.Alphabet) [][]*SymbolMatrix {
	out := make([][]*SymbolMatrix, len(own))
	for m, t := range own {
		out[m] = make([]*SymbolMatrix, len(disguised))
		for n, sp := range disguised {
			mat := NewSymbolMatrix(len(t), len(sp))
			for q, tq := range t {
				for p, spp := range sp {
					mat.Set(q, p, oracleSub(a, spp, tq))
				}
			}
			out[m][n] = mat
		}
	}
	return out
}

func oracleValidate(m *SymbolMatrix, a *alphabet.Alphabet) error {
	if err := m.validShape(); err != nil {
		return err
	}
	for i, s := range m.Cell {
		if int(s) >= a.Size() {
			return fmt.Errorf("protocol: symbol %d at cell %d outside %s", s, i, a)
		}
	}
	return nil
}

func oracleFromCCM(m editdist.CCM) int {
	prev, cur := make([]int, m.Cols+1), make([]int, m.Cols+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= m.Rows; i++ {
		cur[0] = i
		for j := 1; j <= m.Cols; j++ {
			sub := prev[j-1]
			if m.At(i-1, j-1) != 0 {
				sub++
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, sub)
		}
		prev, cur = cur, prev
	}
	return prev[m.Cols]
}

// oracleAlphaCCMs is the first two passes; oracleAlphaThirdParty adds the
// third. Errors keep the old order: shapes of the whole block first, then
// cells pair by pair.
func oracleAlphaCCMs(m [][]*SymbolMatrix, a *alphabet.Alphabet, jt rng.Stream) ([][]editdist.CCM, error) {
	maxCols, anyRows := 0, false
	for i, row := range m {
		for j, mat := range row {
			if mat == nil {
				return nil, fmt.Errorf("protocol: nil intermediary matrix at (%d,%d)", i, j)
			}
			if err := mat.validShape(); err != nil {
				return nil, fmt.Errorf("protocol: intermediary (%d,%d): %w", i, j, err)
			}
			if mat.Rows > 0 {
				anyRows = true
				maxCols = max(maxCols, mat.Cols)
			}
		}
	}
	prefix := make([]int, maxCols)
	if maxCols > 0 {
		rng.FillIntn(jt, prefix, a.Size())
	}
	if anyRows {
		jt.Reseed()
	}
	out := make([][]editdist.CCM, len(m))
	for i, row := range m {
		out[i] = make([]editdist.CCM, len(row))
		for j, mat := range row {
			if err := oracleValidate(mat, a); err != nil {
				return nil, fmt.Errorf("protocol: intermediary (%d,%d): %w", i, j, err)
			}
			ccm := editdist.NewCCM(mat.Rows, mat.Cols)
			for q := 0; q < mat.Rows; q++ {
				for p := 0; p < mat.Cols; p++ {
					if oracleSub(a, mat.At(q, p), alphabet.Symbol(prefix[p])) != 0 {
						ccm.Set(q, p, 1)
					}
				}
			}
			out[i][j] = ccm
		}
	}
	return out, nil
}

func oracleAlphaThirdParty(m [][]*SymbolMatrix, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	cols := 0
	if len(m) > 0 {
		cols = len(m[0])
	}
	for i, row := range m {
		if len(row) != cols {
			return nil, fmt.Errorf("protocol: ragged intermediary matrix row %d", i)
		}
	}
	ccms, err := oracleAlphaCCMs(m, a, jt)
	if err != nil {
		return nil, err
	}
	out := NewInt64Matrix(len(m), cols)
	for i, row := range ccms {
		for j, ccm := range row {
			out.Set(i, j, int64(oracleFromCCM(ccm)))
		}
	}
	return out, nil
}

// chunkMatrices copies a chunk out into per-pair matrices, the form the
// oracle reads, one field at a time from the packed layout.
func chunkMatrices(c *AlphaChunk) [][]*SymbolMatrix {
	out := make([][]*SymbolMatrix, len(c.Counts))
	shapes, off := c.Shapes, 0
	for i, n := range c.Counts {
		for _, sh := range shapes[:n] {
			mat := NewSymbolMatrix(sh.Rows, sh.Cols)
			rb := AlphaRowBytes(sh.Cols, c.Bits)
			for q := range sh.Rows {
				for p := range sh.Cols {
					if c.Wide != nil {
						mat.Set(q, p, c.Wide[off/2+q*sh.Cols+p])
					} else {
						mat.Set(q, p, alphabet.Symbol(field(c.Packed[off+q*rb:], p, c.Bits)))
					}
				}
			}
			off += sh.Rows * rb
			out[i] = append(out[i], mat)
		}
		shapes = shapes[n:]
	}
	return out
}

// cellCount is the number of cells a chunk's matrices hold.
func cellCount(c *AlphaChunk) int {
	n := 0
	for _, sh := range c.Shapes {
		n += sh.Rows * sh.Cols
	}
	return n
}

// setCell overwrites cell k of a chunk, counting cells matrix after matrix
// and row after row as chunkMatrices does.
func setCell(c *AlphaChunk, k, v int) {
	off := 0
	for _, sh := range c.Shapes {
		rb := AlphaRowBytes(sh.Cols, c.Bits)
		if k < sh.Rows*sh.Cols {
			q, p := k/sh.Cols, k%sh.Cols
			if c.Wide != nil {
				c.Wide[off/2+k] = alphabet.Symbol(v)
				return
			}
			row := c.Packed[off+q*rb:]
			mask := 1<<c.Bits - 1
			row[p*c.Bits/8] &^= byte(mask << (p * c.Bits % 8))
			setField(row, p, c.Bits, v)
			return
		}
		k -= sh.Rows * sh.Cols
		off += sh.Rows * rb
	}
}
