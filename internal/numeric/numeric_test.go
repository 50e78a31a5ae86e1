package numeric

import (
	"math"
	"testing"
)

func TestZero(t *testing.T) {
	cases := []struct {
		x    float64
		want bool
	}{
		{0, true},
		{1e-13, true},
		{-1e-13, true},
		{Eps, true},
		{1e-11, false},
		{1, false},
		{math.NaN(), false},
	}
	for _, c := range cases {
		if got := Zero(c.x); got != c.want {
			t.Errorf("Zero(%g) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-13, true},
		{1e6, 1e6 * (1 + 1e-13), true}, // relative tolerance scales
		{1, 1 + 1e-9, false},
		{0, 1e-11, false},
		{math.NaN(), math.NaN(), false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
