package transport

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestMain fails the package when wire buffers leak: once every test has
// closed its connections, each buffer acquired from the pool must have
// been released. Connection teardown finishes on background goroutines,
// so the check waits briefly for the count to settle.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(2 * time.Second)
		for WireOutstanding() != 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := WireOutstanding(); n != 0 {
			fmt.Fprintf(os.Stderr, "transport: %d wire buffers outstanding after the tests\n", n)
			code = 1
		}
	}
	os.Exit(code)
}
