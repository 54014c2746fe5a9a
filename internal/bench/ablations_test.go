package bench

import (
	"testing"

	"repro/internal/arch"
)

// §5.1's write-buffer claim: the many-store reservation protocol degrades
// more than the one-store RAS when the write buffer shallows.
func TestTableWriteBufferShape(t *testing.T) {
	rows, err := TableWriteBuffer(&Harness{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	none, deep, shallow := rows[0], rows[1], rows[2]
	if shallow.Ratio <= none.Ratio {
		t.Errorf("shallow-buffer ratio %.2f not > unbuffered ratio %.2f",
			shallow.Ratio, none.Ratio)
	}
	if shallow.LamportAMic <= deep.LamportAMic {
		t.Errorf("lamport under shallow buffer %.2f not > deep %.2f",
			shallow.LamportAMic, deep.LamportAMic)
	}
	// RAS should be nearly insensitive to the buffer depth (two stores
	// per critical section, far apart).
	if shallow.RASMicros > none.RASMicros*1.5 {
		t.Errorf("RAS too sensitive to write buffer: %.2f vs %.2f",
			shallow.RASMicros, none.RASMicros)
	}
	t.Logf("\n%s", FormatWriteBuffer(rows))
}

// §3.1's single-sequence restriction: the linear multi-range check slows
// the whole workload as the table grows; correctness is preserved.
func TestTableRegistrationRangesShape(t *testing.T) {
	rows, err := TableRegistrationRanges(&Harness{}, 3, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].CheckCycles <= rows[i-1].CheckCycles {
			t.Errorf("check cost not growing: %d -> %d",
				rows[i-1].CheckCycles, rows[i].CheckCycles)
		}
		if rows[i].Micros <= rows[i-1].Micros {
			t.Errorf("elapsed not growing with table size: %.1f -> %.1f",
				rows[i-1].Micros, rows[i].Micros)
		}
	}
	for _, r := range rows {
		if r.Restarts == 0 {
			t.Errorf("ranges=%d: no restarts under 61-cycle quantum", r.Ranges)
		}
	}
	t.Logf("\n%s", FormatRanges(rows, arch.R3000().PCCheckDesignatedCycles))
}

func TestAblationFormatters(t *testing.T) {
	if FormatWriteBuffer([]WBufRow{{Memory: "x"}}) == "" {
		t.Error("empty write-buffer table")
	}
	if FormatRanges([]RangesRow{{Ranges: 1}}, 50) == "" {
		t.Error("empty ranges table")
	}
}
