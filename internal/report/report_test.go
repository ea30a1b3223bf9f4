package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Table 1. Overview", "List", "Total", "Spin")
	tb.AddRow("Toplists", "2,732,702", "6.9%")
	tb.AddRow("CZDS", "216,520,521", "10.2%")
	out := tb.String()
	if !strings.Contains(out, "Table 1. Overview") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns align: "Total" and its values start at the same offset.
	hdrIdx := strings.Index(lines[1], "Total")
	rowIdx := strings.Index(lines[3], "2,732,702")
	if hdrIdx != rowIdx {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestAddRowPadding(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("row = %v", tb.Rows[0])
	}
}

func TestCount(t *testing.T) {
	cases := map[int]string{
		0:         "0",
		999:       "999",
		1000:      "1,000",
		216520521: "216,520,521",
		-1234567:  "-1,234,567",
	}
	for n, want := range cases {
		if got := Count(n); got != want {
			t.Errorf("Count(%d) = %q, want %q", n, got, want)
		}
	}
}
