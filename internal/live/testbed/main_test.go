package testbed

import (
	"fmt"
	"os"
	"testing"
	"time"

	"iqpaths/internal/transport"
)

// TestMain fails the package when a relay leaks wire buffers: once every
// test has closed its relays, each pooled buffer must be back in the pool.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(2 * time.Second)
		for transport.WireOutstanding() != 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := transport.WireOutstanding(); n != 0 {
			fmt.Fprintf(os.Stderr, "testbed: %d wire buffers outstanding after the tests\n", n)
			code = 1
		}
	}
	os.Exit(code)
}
