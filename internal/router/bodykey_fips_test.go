//go:build go1.24

// GODEBUG=fips140=only and crypto/fips140 arrive with Go 1.24; an older
// toolchain ignores the setting, so cipher.NewGCM never refuses there.

package router

import (
	"bytes"
	"crypto/fips140"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// fipsChildEnv marks a test binary re-executed under GODEBUG=fips140=only.
const fipsChildEnv = "COPMECS_FIPS_ONLY_CHILD"

// TestNewRefusesFIPSOnly: under GODEBUG=fips140=only, cipher.NewGCM refuses
// a caller-chosen nonce, and New must fail with that error rather than key
// bodies some other way. The setting is read once at process start, so the
// test re-runs itself in a child test binary with it set.
func TestNewRefusesFIPSOnly(t *testing.T) {
	if os.Getenv(fipsChildEnv) != "" {
		if !fips140.Enabled() {
			t.Fatal("child runs without FIPS 140 mode")
		}
		_, err := New(Config{Backends: []BackendConfig{{Name: "a", URL: "http://127.0.0.1:1"}}})
		if err == nil || !strings.Contains(err.Error(), "GCM") {
			t.Fatalf("New under fips140=only: err %v, want the GCM refusal", err)
		}
		t.Logf("refused: %v", err)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNewRefusesFIPSOnly$", "-test.v", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=fips140=only", fipsChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("refused: router: body key: crypto/cipher:")) {
		t.Fatalf("child: %v\n%s", err, out)
	}
}
