package protocol

// Figures 4–6 with the initiator on the row axis.
//
// The paper names DHJ the initiator and DHK the responder, and the third
// party recovers a block whose rows are DHK's objects and whose columns are
// DHJ's. Nothing in the protocol depends on which holder disguises first, so
// a session may swap the roles for a share of a block's rows and keep the
// block's orientation: DHK disguises its own values for those rows, DHJ
// combines them with its column values, and the rows the third party
// recovers are still DHK's objects, installed where the other share's are.
//
// With the initiator on the row axis every shared stream is read
// sequentially and never rewound, one draw per disguised cell: in batch mode
// each row object is disguised once — one mask and one parity per row,
// reused across the columns, the paper's batch discipline with the roles
// swapped — and in per-pair mode once per cell, row-major. Rows [lo, hi) of
// such a block take draws [lo·w, hi·w) of each stream, w being RowWidth: a
// pass over ascending row ranges on one stream takes exactly what one pass
// over the block would, and a party that starts mid-block first advances
// past the earlier rows (Numeric.Advance with InitiatorRows).

// Axis names the axis of a pair block the initiator's objects lie on.
type Axis int

const (
	// InitiatorCols is Figures 4–6 as drawn: the initiator's objects are
	// the columns, and in batch mode every row re-reads one mask per
	// column.
	InitiatorCols Axis = iota
	// InitiatorRows swaps the roles and keeps the orientation: the
	// initiator's objects are the rows, and in batch mode each row has one
	// mask and one parity, shared by all of its cells.
	InitiatorRows
)

// RowWidth is how many draws one row of a block of cols columns takes from
// each shared stream when the initiator is on the row axis, and so how
// many cells the row's disguise has: one in batch mode (none when the row
// has no cells), one per cell in per-pair mode.
func RowWidth(cols int, mode Mode) int {
	if mode == PerPair || cols == 0 {
		return cols
	}
	return 1
}

// maskRow is row r's masks among a chunk's: the shared run every row
// re-reads (initiator on the columns, batch mode), the row's own run
// (per-pair mode), or — initiator on the rows, batch mode — the one mask
// the whole row shares, a run of length one.
func maskRow[T any](masks []T, r, cols int, mode Mode, axis Axis) []T {
	if axis == InitiatorRows {
		w := RowWidth(cols, mode)
		return masks[r*w : (r+1)*w]
	}
	return drawRow(masks, r, cols, mode)
}
