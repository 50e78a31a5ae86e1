package graph

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// scanFloat is Scanner.Float's one pass: it delimits the JSON-grammar number
// at the start of b, as Scanner.number does, and converts it in the same
// loop, returning the value and the bytes it takes. ok is false when it
// cannot decide — not a number, more than maxMantDigits significant digits,
// or a value Eisel–Lemire leaves to the slow path (an exponent outside
// pow10Table, a half-way case, overflow, underflow, a subnormal) — and
// Scanner.Float then hands the same bytes to strconv.ParseFloat, which alone
// defines the value. Every value it returns is the one strconv.ParseFloat
// gives (fuzzed, and tested on millions of strings): both are correctly
// rounded.
func scanFloat(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// man holds the digits from the first non-zero one on, nd of them.
	var man uint64
	nd := 0
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		from := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd == maxMantDigits {
				return 0, 0, false
			}
			man = man*10 + uint64(b[i]-'0')
			nd++
		}
		if i == from {
			return 0, 0, false
		}
	}
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		from := i
		if man == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		for nd+8 <= maxMantDigits && len(b)-i >= 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(w) {
				break
			}
			man = man*1e8 + eightDigitsValue(w)
			nd += 8
			i += 8
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd == maxMantDigits {
				return 0, 0, false
			}
			man = man*10 + uint64(b[i]-'0')
			nd++
		}
		if i == from {
			return 0, 0, false
		}
		exp10 = from - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (eneg || b[i] == '+') {
			i++
		}
		from, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // past every table bound, as strconv caps it
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == from {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	f, ok = eiselLemire64(man, exp10, neg)
	return f, i, ok
}

// maxMantDigits is how many significant decimal digits a uint64 always holds.
const maxMantDigits = 19

// eightDigits reports whether the eight bytes of w (little-endian: the first
// byte lowest) are all ASCII digits: each byte's high nibble is 3, and still
// is after adding 6.
func eightDigits(w uint64) bool {
	return (w&0xF0F0F0F0F0F0F0F0)|((w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// eightDigitsValue is the value of the eight ASCII digits in w, first byte
// most significant: adjacent digits, pairs and quads merged in three
// multiply-shift steps.
func eightDigitsValue(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8
	w = ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return w & 0xFFFFFFFF
}

// The rows of pow10Table: every exponent at which a mantissa of at most
// maxMantDigits digits can name a normal float64. Below it every such value
// is subnormal or zero, above it infinite, which eiselLemire64 declines
// anyway.
const (
	pow10MinExp10 = -326
	pow10MaxExp10 = 308
)

// pow10Table holds 10^e for e in [pow10MinExp10, pow10MaxExp10] as 128-bit
// mantissas {low, high} in [2^127, 2^128), rounded down, their binary
// exponents implied (see eiselLemire64). It is strconv's
// detailedPowersOfTen over these rows, computed exactly once rather than
// listed.
var pow10Table = func() (t [pow10MaxExp10 - pow10MinExp10 + 1][2]uint64) {
	top := func(m *big.Int) [2]uint64 { // the 128 bits below bit 128
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64))
		return [2]uint64{lo.Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
	}
	p := big.NewInt(1)
	for e := 0; e <= pow10MaxExp10; e++ {
		if l := p.BitLen(); l >= 128 {
			t[e-pow10MinExp10] = top(new(big.Int).Rsh(p, uint(l-128)))
		} else {
			t[e-pow10MinExp10] = top(new(big.Int).Lsh(p, uint(128-l)))
		}
		p.Mul(p, big.NewInt(10))
	}
	q := big.NewInt(1)
	for e := -1; e >= pow10MinExp10; e-- {
		// q = 10^-e is no power of two, so 2^(bitlen(q)+127) / q lies
		// strictly between 2^127 and 2^128.
		q.Mul(q, big.NewInt(10))
		num := new(big.Int).Lsh(big.NewInt(1), uint(q.BitLen()+127))
		t[e-pow10MinExp10] = top(num.Quo(num, q))
	}
	return t
}()

// eiselLemire64 is strconv's eiselLemire64 (Go's eisel_lemire.go, after
// https://nigeltao.github.io/blog/2020/eisel-lemire.html) over pow10Table:
// the float64 nearest man × 10^exp10, or ok false when it cannot be sure of
// it. Integer arithmetic only, so the same bits on every platform.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10MinExp10 || pow10MaxExp10 < exp10 {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10MinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// Zero or wrapped below it: subnormal. 0x7FF or above: infinite.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
