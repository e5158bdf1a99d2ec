// Package alphabet models the finite alphabets over which the alphanumeric
// comparison protocol operates.
//
// The İnan et al. protocol for alphanumeric attributes (paper Section 4.2)
// assumes a finite alphabet so that "addition of a random number and a
// character is another alphabet character": every character is identified
// with its index, and disguise/undisguise are addition/subtraction modulo
// the alphabet size. This package provides the index codec and the modular
// arithmetic, plus the standard alphabets used by the examples (DNA for the
// paper's bird-flu motivation, protein, lowercase Latin, digits).
package alphabet

import (
	"fmt"
	"strings"
)

// Symbol is a character's index within an Alphabet, in [0, Size).
type Symbol uint16

// Alphabet is an ordered finite set of runes. The zero value is unusable;
// construct with New or use a predefined alphabet.
type Alphabet struct {
	name    string
	symbols []rune
	index   map[rune]Symbol
}

// New builds an alphabet named name over the given runes, preserving order.
// Duplicate runes are rejected, as is an empty set.
func New(name string, runes []rune) (*Alphabet, error) {
	if len(runes) == 0 {
		return nil, fmt.Errorf("alphabet %q: no symbols", name)
	}
	if len(runes) > 1<<16 {
		return nil, fmt.Errorf("alphabet %q: %d symbols exceeds the 65536 Symbol limit", name, len(runes))
	}
	a := &Alphabet{
		name:    name,
		symbols: append([]rune(nil), runes...),
		index:   make(map[rune]Symbol, len(runes)),
	}
	for i, r := range a.symbols {
		if _, dup := a.index[r]; dup {
			return nil, fmt.Errorf("alphabet %q: duplicate symbol %q", name, r)
		}
		a.index[r] = Symbol(i)
	}
	return a, nil
}

// MustNew is New but panics on error; intended for package-level variables.
func MustNew(name string, runes []rune) *Alphabet {
	a, err := New(name, runes)
	if err != nil {
		panic(err)
	}
	return a
}

// Predefined alphabets.
var (
	// DNA is the four-letter nucleotide alphabet.
	DNA = MustNew("dna", []rune("ACGT"))
	// Protein is the 20-letter amino-acid alphabet.
	Protein = MustNew("protein", []rune("ACDEFGHIKLMNPQRSTVWY"))
	// Lower is the lowercase Latin alphabet.
	Lower = MustNew("lower", []rune("abcdefghijklmnopqrstuvwxyz"))
	// Digits is the decimal digit alphabet.
	Digits = MustNew("digits", []rune("0123456789"))
	// AlphaNum covers lowercase letters, digits and space — a practical
	// alphabet for free-text identifiers in record-linkage scenarios.
	AlphaNum = MustNew("alphanum", []rune("abcdefghijklmnopqrstuvwxyz0123456789 "))
)

// ByName resolves a predefined alphabet by its name, for CLI flags and
// serialized schemas.
func ByName(name string) (*Alphabet, error) {
	switch strings.ToLower(name) {
	case "dna":
		return DNA, nil
	case "protein":
		return Protein, nil
	case "lower":
		return Lower, nil
	case "digits":
		return Digits, nil
	case "alphanum":
		return AlphaNum, nil
	default:
		return nil, fmt.Errorf("alphabet: unknown alphabet %q", name)
	}
}

// Name returns the alphabet's name.
func (a *Alphabet) Name() string { return a.name }

// Size returns the number of symbols.
func (a *Alphabet) Size() int { return len(a.symbols) }

// Rune returns the rune at symbol index s.
func (a *Alphabet) Rune(s Symbol) rune {
	if int(s) >= len(a.symbols) {
		panic(fmt.Sprintf("alphabet %q: symbol %d out of range", a.name, s))
	}
	return a.symbols[s]
}

// Symbol returns the index of rune r, reporting whether r belongs to the
// alphabet.
func (a *Alphabet) Symbol(r rune) (Symbol, bool) {
	s, ok := a.index[r]
	return s, ok
}

// Contains reports whether every rune of s belongs to the alphabet.
func (a *Alphabet) Contains(s string) bool {
	for _, r := range s {
		if _, ok := a.index[r]; !ok {
			return false
		}
	}
	return true
}

// Encode converts a string into its symbol vector. It fails on the first
// rune outside the alphabet.
func (a *Alphabet) Encode(s string) ([]Symbol, error) {
	out := make([]Symbol, 0, len(s))
	for _, r := range s {
		sym, ok := a.index[r]
		if !ok {
			return nil, fmt.Errorf("alphabet %q: rune %q not in alphabet", a.name, r)
		}
		out = append(out, sym)
	}
	return out, nil
}

// MustEncode is Encode but panics on error; intended for tests and examples
// with known-good literals.
func (a *Alphabet) MustEncode(s string) []Symbol {
	v, err := a.Encode(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Decode converts a symbol vector back into a string.
func (a *Alphabet) Decode(v []Symbol) string {
	var b strings.Builder
	b.Grow(len(v))
	for _, s := range v {
		b.WriteRune(a.Rune(s))
	}
	return b.String()
}

// Add returns (x + y) mod Size: the disguise operation of the alphanumeric
// protocol. Like Sub it takes symbols of the alphabet — both operands in
// [0, Size) — which is what lets it reduce with one comparison instead of
// a division.
func (a *Alphabet) Add(x, y Symbol) Symbol {
	s := int(x) + int(y)
	if n := len(a.symbols); s >= n {
		s -= n
	}
	return Symbol(s)
}

// Sub returns (x − y) mod Size: the responder's differencing operation.
func (a *Alphabet) Sub(x, y Symbol) Symbol {
	d := int(x) - int(y)
	if d < 0 {
		d += len(a.symbols)
	}
	return Symbol(d)
}

// InRange reports nil when every symbol of v belongs to the alphabet, and
// otherwise names the first that does not — the one check, and the one
// wording, for symbols that arrive from another party.
func InRange[T ~uint8 | ~uint16](a *Alphabet, v []T) error {
	for i, s := range v {
		if int(s) >= len(a.symbols) {
			return &RangeError{Alphabet: a, Value: int(s), Position: i}
		}
	}
	return nil
}

// RangeError is what arrived from another party outside an alphabet: the
// symbol Value at Position of the symbols checked or, when Padding is set,
// padding bits Value after Position in a row of symbols packed a few bits
// each, which must be zero.
type RangeError struct {
	Alphabet        *Alphabet
	Value, Position int
	Padding         bool
}

func (e *RangeError) Error() string {
	if e.Padding {
		return fmt.Sprintf("padding %#x after position %d outside %s", e.Value, e.Position, e.Alphabet)
	}
	return fmt.Sprintf("symbol %d at position %d outside %s", e.Value, e.Position, e.Alphabet)
}

// String implements fmt.Stringer.
func (a *Alphabet) String() string {
	return fmt.Sprintf("alphabet(%s, %d symbols)", a.name, len(a.symbols))
}
