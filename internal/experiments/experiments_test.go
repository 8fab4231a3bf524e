package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"typhoon/internal/metrics"
)

func TestRegistryIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("malformed entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if ByID(e.ID) == nil {
			t.Fatalf("ByID(%q) = nil", e.ID)
		}
	}
	if ByID("nope") != nil {
		t.Fatal("unknown id resolved")
	}
}

func TestResultPrintFormats(t *testing.T) {
	res := Result{
		ID:      "Fig X",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Label: "numbers", Values: []float64{1234567, 2500, 3, 0.5}},
			{Label: "text", Text: "hello"},
		},
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Fig X", "demo", "1.23M", "2.5K", "hello", "0.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	res.Err = errors.New("boom")
	buf.Reset()
	res.Print(&buf)
	if !strings.Contains(buf.String(), "ERROR: boom") {
		t.Fatal("error not rendered")
	}
}

func TestDownsample(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i)
	}
	out := downsample(s, 10)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatal("monotone input should stay monotone after averaging")
		}
	}
	// Short series pass through untouched.
	if got := downsample([]float64{1, 2}, 10); len(got) != 2 {
		t.Fatal("short series resampled")
	}
}

func TestCDFRowConvertsToMilliseconds(t *testing.T) {
	lat := &metrics.Histogram{}
	for i := 1; i <= 100; i++ {
		lat.Record(time.Duration(i) * time.Millisecond)
	}
	row := cdfRow("x", lat)
	if len(row.Values) != 10 {
		t.Fatalf("points = %d", len(row.Values))
	}
	if row.Values[9] < 99 || row.Values[9] > 101 {
		t.Fatalf("P100 = %v ms", row.Values[9])
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.Warmup <= 0 || p.Measure <= 0 {
		t.Fatal("defaults not applied")
	}
	q := Params{Warmup: time.Minute, Measure: time.Minute}.WithDefaults()
	if q.Warmup != time.Minute {
		t.Fatal("explicit values overridden")
	}
}
