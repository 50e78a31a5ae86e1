package serve

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"
	"time"

	"copmecs/internal/netgen"
)

func newBodyKeyer(t testing.TB) *BodyKeyer {
	t.Helper()
	k, err := NewBodyKeyer()
	if err != nil {
		t.Fatalf("NewBodyKeyer: %v", err)
	}
	return k
}

// TestBodyKeyIdentity pins the identity contract the two body tables rely
// on: the same bytes give the same key, and every small change a client's
// encoder could make gives a different one.
func TestBodyKeyIdentity(t *testing.T) {
	k := newBodyKeyer(t)
	body := missBody(t, 3)
	if k.Key(body) != k.Key(bytes.Clone(body)) {
		t.Fatal("equal bytes keyed differently")
	}
	if k.Key(nil) != k.Key([]byte{}) {
		t.Fatal("nil and empty bodies keyed differently")
	}
	edited := bytes.Clone(body)
	edited[len(edited)/2] ^= 1
	respaced := bytes.Replace(body, []byte(`,`), []byte(`, `), 1)
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"one-byte edit", edited},
		{"respaced", respaced},
		{"truncated", body[:len(body)-1]},
		{"appended", append(bytes.Clone(body), ' ')},
		{"empty", nil},
	} {
		if bytes.Equal(c.b, body) {
			t.Fatalf("%s: the case is the body itself", c.name)
		}
		if k.Key(c.b) == k.Key(body) {
			t.Errorf("%s: keyed like the body", c.name)
		}
	}
}

// TestBodyKeyPerInstance: each keyer draws its own key, so a key means
// nothing outside the process — and must never be persisted.
func TestBodyKeyPerInstance(t *testing.T) {
	body := missBody(t, 0)
	if newBodyKeyer(t).Key(body) == newBodyKeyer(t).Key(body) {
		t.Fatal("two keyers gave the same key for one body")
	}
}

// TestBodyKeyConcurrent has 8 goroutines key bodies through one keyer (one
// AEAD, one tag pool); under -race it checks the shared Seal, and every
// goroutine must read the keys a serial pass read.
func TestBodyKeyConcurrent(t *testing.T) {
	k := newBodyKeyer(t)
	bodies := make([][]byte, 16)
	want := make([]BodyKey, len(bodies))
	for i := range bodies {
		bodies[i] = missBody(t, i)
		want[i] = k.Key(bodies[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for i, b := range bodies {
					if got := k.Key(b); got != want[i] {
						t.Errorf("goroutine %d: body %d keyed %x, want %x", g, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkBodyKeySpeedup measures BodyKeyer.Key against the SHA-256 of the
// body it replaced on both hit paths, on the serve_hit-shaped n = 100 body and
// a Table I n = 2000 body, the sides alternating inside one process so host
// drift hits both alike. speedup_x is SHA-256 time over Key time;
// scripts/perf_gate.sh floors it.
func BenchmarkBodyKeySpeedup(b *testing.B) {
	table, err := netgen.TableIConfig(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	big, err := netgen.Generate(table)
	if err != nil {
		b.Fatal(err)
	}
	k := newBodyKeyer(b)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"n=100", missBody(b, 0)}, {"n=2000", solveBody(b, big)}} {
		b.Run(bc.name, func(b *testing.B) {
			var keyed, hashed time.Duration
			var key BodyKey
			var sum [sha256.Size]byte
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for side := 0; side < 2; side++ {
					start := time.Now()
					if (i+side)%2 == 0 {
						key = k.Key(bc.body)
						keyed += time.Since(start)
					} else {
						sum = sha256.Sum256(bc.body)
						hashed += time.Since(start)
					}
				}
			}
			if key == (BodyKey{}) || sum == ([sha256.Size]byte{}) {
				b.Fatal("a side returned the zero value")
			}
			b.ReportMetric(hashed.Seconds()/keyed.Seconds(), "speedup_x")
			b.ReportMetric(float64(keyed.Nanoseconds())/float64(b.N), "key_ns")
			b.ReportMetric(float64(hashed.Nanoseconds())/float64(b.N), "sha256_ns")
		})
	}
}
