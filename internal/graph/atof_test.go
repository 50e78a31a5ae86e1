package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refFloat is Scanner.Float as it was before the fused parse, and as
// encoding/json reads a float64: number delimits the token and
// strconv.ParseFloat converts it. It returns the value's bits, the scanner's
// position after the read and whether the value was taken.
func refFloat(data []byte) (bits uint64, end int, ok bool) {
	s := NewScanner(data)
	v, err := strconv.ParseFloat(string(s.number()), 64)
	return math.Float64bits(v), s.i, err == nil
}

// checkFloat holds Scanner.Float to refFloat on data: the same decision, the
// same bytes consumed and, when taken, the same bits.
func checkFloat(t testing.TB, data []byte) {
	t.Helper()
	s := NewScanner(data)
	var v float64
	took := s.Float(&v, 1) != 0
	wantBits, wantEnd, wantOK := refFloat(data)
	if took != wantOK || s.i != wantEnd || took && math.Float64bits(v) != wantBits {
		t.Fatalf("Float(%q) = %v (%#x), ok %v, end %d; number + ParseFloat %v (%#x), ok %v, end %d",
			data, v, math.Float64bits(v), took, s.i, math.Float64frombits(wantBits), wantBits, wantOK, wantEnd)
	}
}

// hardFloats are the strings an exact decimal-to-binary conversion gets
// wrong first, and those the JSON grammar turns away.
var hardFloats = []string{
	"0", "-0", "0.0", "-0.0", "0e5", "-0E-5", "0.000", "0e99999999999999999999",
	"1", "-1", "1.5", "100", "1e23", "8.98846567431158e307", "1.7976931348623157e308",
	"1.7976931348623158e308", "1.7976931348623159e308", "1e308", "1e309", "-1e309", "1e400",
	"9007199254740993", "9007199254740992", "9007199254740991", "90071992547409930",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"4.9406564584124654e-324", "5e-324", "2e-324", "1e-320", "1e-400", "-1e-400",
	"0.000000000000000000000000000001", "0.0000001234567890123456789", "0.1", "0.3",
	"1234567890123456789", "12345678901234567890", "1234567890123456789012345",
	"9999999999999999999", "18446744073709551615", "18446744073709551616",
	"0.1234567890123456789", "0.12345678901234567890", "12.345678901234567890123",
	"1E+0002", "1e+2", "1E-0002", "1.5e0010", "123456789e-5", "1e-326", "1e-327", "1e308",
	"7.2057594037927933e16", "3.0517578125e-5", "179769313486231570000000000000000000000",
	"01", ".5", "5.", "1e", "1e+", "+1", "-", "1_0", "NaN", "Infinity", "-Infinity", "0x10",
	"1.e5", "-.5", "1ee5", "--1", "1.5.5", "", " 1", "\t-2.5e-3 ", "12345678.12345678,",
}

// TestScanFloatExact holds the fused parse to number + strconv.ParseFloat on
// the hard cases and on a million and more generated strings: the shortest
// and the 19-digit forms of random bit patterns, weights in the ranges the
// generators draw, short decimals, and each string bare, at the end of the
// input, and followed by the rest of a member, as a body has it. It also
// pins that the generators' weights decide in the fast pass: a fallback
// would be right, but silently slow.
func TestScanFloatExact(t *testing.T) {
	for _, s := range hardFloats {
		checkFloat(t, []byte(s))
		checkFloat(t, []byte(s+`,"u":12}`))
	}
	for _, s := range []string{"01", ".5", "5.", "1e", "+1", "1_0", "NaN", "0x10"} {
		var v float64
		if sc := NewScanner([]byte(s)); sc.Float(&v, 1) != 0 && sc.Done() {
			t.Errorf("Float took %q whole; JSON has no such number", s)
		}
	}

	n := 1 << 19
	if testing.Short() || raceBuild() { // one goroutine: nothing to race
		n >>= 4
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	check := func(f []byte) {
		checkFloat(t, f)
		buf = append(append(buf[:0], f...), `,"weight":1}`...)
		checkFloat(t, buf)
	}
	for range n {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(strconv.AppendFloat(buf[:0], f, 'g', -1, 64))
		check(strconv.AppendFloat(buf[:0], f, 'e', 18, 64))
	}
	// Leading zeros, 19-digit mantissas and short decimals, exact binary
	// fractions (0.5, 1.25, 2.0) among them, which Eisel–Lemire may leave
	// to strconv.
	short := []string{"0.0000001234567890123456789", "1234567890123456789", "-0.5", "1E+0002",
		"37.12345678901234", "1.000000000000000000", "0.0000000000000000000000000075"}
	for x := range 100 {
		for y := range 100 {
			short = append(short, fmt.Sprintf("%d.%02d", x, y), fmt.Sprintf("-%d.%d", x, y%10),
				fmt.Sprintf("%d%02d", x, y), fmt.Sprintf("%d.%03de-2", x, 7*y))
		}
	}
	for _, s := range short {
		check([]byte(s))
	}
	fallbacks := 0
	for i := range n / 4 {
		w := []float64{1 + 99*rng.Float64(), 100 * rng.Float64(), 10 * rng.Float64()}[i%3]
		// encoding/json's form of the weight, as a body carries it.
		f := strconv.AppendFloat(buf[:0], w, 'f', -1, 64)
		if w < 1e-6 {
			f = strconv.AppendFloat(buf[:0], w, 'e', -1, 64)
		}
		if _, _, ok := scanFloat(f); !ok {
			fallbacks++
		}
		check(f)
	}
	if fallbacks != 0 {
		t.Errorf("%d of %d weights fell back to strconv", fallbacks, n/4)
	}
}

// TestEightDigits holds the eight-byte digit test and value to a byte loop
// and strconv.ParseUint.
func TestEightDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var b [8]byte
	for i := range 1 << 16 {
		for k := range b {
			b[k] = byte('0' + rng.Intn(10))
			if i%2 == 1 && rng.Intn(8) == 0 {
				b[k] = byte(rng.Intn(256))
			}
		}
		w := uint64(0)
		for k := 7; k >= 0; k-- {
			w = w<<8 | uint64(b[k])
		}
		want := true
		for _, c := range b {
			want = want && '0' <= c && c <= '9'
		}
		if eightDigits(w) != want {
			t.Fatalf("eightDigits(%q) = %v", b[:], !want)
		}
		if want {
			v, err := strconv.ParseUint(string(b[:]), 10, 64)
			if err != nil || eightDigitsValue(w) != v {
				t.Fatalf("eightDigitsValue(%q) = %d, want %d (%v)", b[:], eightDigitsValue(w), v, err)
			}
		}
	}
}

// TestPow10TableRows checks computed rows against rows of strconv's listed
// table.
func TestPow10TableRows(t *testing.T) {
	for _, tc := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{-10, 0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE},
		{-5, 0x0FCF80DC33721D53, 0xA7C5AC471B478423},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{6, 0, 0xF424000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
	} {
		if got := pow10Table[tc.exp10-pow10MinExp10]; got != [2]uint64{tc.lo, tc.hi} {
			t.Errorf("1e%d: %#x, want {%#x %#x}", tc.exp10, got, tc.lo, tc.hi)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// FuzzScanFloat holds Scanner.Float to number + strconv.ParseFloat on
// arbitrary bytes: accept or decline, bytes consumed and Float64bits. Run
// longer with: make fuzz
func FuzzScanFloat(f *testing.F) {
	for _, s := range hardFloats {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFloat(t, data)
	})
}

// floatTokens returns the offset of every number Scanner.Float reads in a
// graph body: each weight.
func floatTokens(body []byte) []int {
	var at []int
	for i := 0; ; {
		k := bytes.Index(body[i:], []byte(`"weight":`))
		if k < 0 {
			return at
		}
		i += k + len(`"weight":`)
		at = append(at, i)
	}
}

// BenchmarkFloatScanSpeedup times Scanner.Float over every weight of the
// n=100 and n=2000 bodies against number + strconv.ParseFloat, the parse it
// replaced, alternating inside one process; scripts/perf_gate.sh floors
// speedup_x.
func BenchmarkFloatScanSpeedup(b *testing.B) {
	for _, bc := range []struct {
		name string
		body []byte
	}{{"n=100", smallBody(b)}, {"n=2000", tableBody(b)}} {
		b.Run(bc.name, func(b *testing.B) {
			at := floatTokens(bc.body)
			if len(at) == 0 || strings.Count(string(bc.body), "weight") != len(at) {
				b.Fatal("no weights in the benchmark body")
			}
			s := NewScanner(bc.body)
			var sum, ref float64
			var fused, parse time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for _, p := range at {
					var v float64
					s.i = p
					s.Float(&v, 1)
					sum += v
				}
				fused += time.Since(start)
				start = time.Now()
				for _, p := range at {
					s.i = p
					v, _ := strconv.ParseFloat(string(s.number()), 64)
					ref += v
				}
				parse += time.Since(start)
			}
			if math.Float64bits(sum) != math.Float64bits(ref) {
				b.Fatalf("fused sum %v, ParseFloat sum %v", sum, ref)
			}
			b.ReportMetric(parse.Seconds()/fused.Seconds(), "speedup_x")
			b.ReportMetric(float64(fused.Nanoseconds())/float64(b.N*len(at)), "ns/number")
		})
	}
}
