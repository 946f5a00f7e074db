//go:build !linux || (!amd64 && !arm64) || iqpaths_nommsg

package transport

// Portable build: no mmsg syscalls. BatchConn keeps the same API with one
// syscall per datagram; the iqpaths_nommsg tag selects this file on Linux
// too, which is how CI keeps the fallback path from rotting.

const mmsgAvailable = false

type batchScratch struct{}

func newBatchScratch(write bool) *batchScratch { return nil }

func (bc *BatchConn) writeBatchMMsg(dgs []Datagram) (int, error) {
	panic("transport: mmsg path invoked on a fallback build")
}

func (bc *BatchConn) readBatchMMsg(dgs []Datagram) (int, error) {
	panic("transport: mmsg path invoked on a fallback build")
}
