package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func recorderOf(vs ...float64) *Recorder {
	r := &Recorder{}
	for _, v := range vs {
		r.Add(v)
	}
	return r
}

func TestPercentileNearestRank(t *testing.T) {
	r := recorderOf(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	tests := []struct {
		p    float64
		want float64
	}{
		{10, 10},
		{50, 50},
		{90, 90},
		{95, 100},
		{99, 100},
		{100, 100},
	}
	for _, tt := range tests {
		if got := r.Percentile(tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	r := recorderOf(42)
	for _, p := range []float64{1, 50, 99} {
		if got := r.Percentile(p); got != 42 {
			t.Errorf("Percentile(%v) = %v, want 42", p, got)
		}
	}
}

func TestEmptyRecorder(t *testing.T) {
	r := &Recorder{}
	for name, f := range map[string]func() float64{
		"Percentile": func() float64 { return r.Percentile(50) },
		"Mean":       r.Mean,
		"Std":        r.Std,
		"Max":        r.Max,
	} {
		if !math.IsNaN(f()) {
			t.Errorf("%s on empty recorder is not NaN", name)
		}
	}
}

func TestMeanStd(t *testing.T) {
	r := recorderOf(2, 4, 4, 4, 5, 5, 7, 9)
	if got := r.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := r.Std(); got != 2 {
		t.Errorf("Std = %v, want 2", got)
	}
}

func TestMax(t *testing.T) {
	if r := recorderOf(5, -1, 3); r.Max() != 5 {
		t.Errorf("Max = %v", r.Max())
	}
}

func TestAddAfterPercentileKeepsSorted(t *testing.T) {
	r := recorderOf(3, 1)
	if r.Percentile(50) != 1 {
		t.Fatal("median of {1,3} wrong")
	}
	r.Add(0)
	if got := r.Percentile(1); got != 0 {
		t.Fatalf("smallest after late Add = %v", got)
	}
}

func TestPercentileWithinRange(t *testing.T) {
	f := func(vs []float64, p float64) bool {
		if len(vs) == 0 {
			return true
		}
		p = math.Mod(math.Abs(p), 100) + 0.5
		r := recorderOf(vs...)
		got := r.Percentile(p)
		return got >= r.Percentile(0) && got <= r.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileRowFormat(t *testing.T) {
	r := recorderOf(1000, 2000, 3000)
	row := r.PercentileRow(1000)
	if row == "" || row == "      -       -       -" {
		t.Fatalf("row = %q", row)
	}
	if got := (&Recorder{}).PercentileRow(1000); got != "      -       -       -" {
		t.Fatalf("empty row = %q", got)
	}
}
