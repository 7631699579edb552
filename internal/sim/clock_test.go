package sim

import (
	"testing"
	"time"
)

func TestSeconds(t *testing.T) {
	tests := []struct {
		name string
		give float64
		want Time
	}{
		{name: "zero", give: 0, want: 0},
		{name: "one second", give: 1, want: Second},
		{name: "fraction", give: 0.5, want: 500 * Millisecond},
		{name: "minutes", give: 90, want: Minute + 30*Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Seconds(tt.give); got != tt.want {
				t.Errorf("Seconds(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestSecondsOfRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 1, 4.25, 1800, 86400 * 3} {
		if got := SecondsOf(Seconds(s)); got != s {
			t.Errorf("SecondsOf(Seconds(%v)) = %v", s, got)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := 10 * Minute
	b := 25 * Minute
	if got := a.Add(15 * Minute); got != b {
		t.Errorf("Add = %v, want %v", got, b)
	}
	if got := b.Sub(a); got != 15*Minute {
		t.Errorf("Sub = %v, want 15m", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := (Hour + 30*Minute).String(); got != "1h30m0s" {
		t.Errorf("String = %q, want 1h30m0s", got)
	}
	if got := (2 * Minute).Duration(); got != 2*time.Minute {
		t.Errorf("Duration = %v", got)
	}
}
