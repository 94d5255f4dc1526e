//go:build !(linux && (amd64 || arm64))

package netfabric

import (
	"errors"
	"net"
)

// batchIOAvailable reports whether this build has a vectored I/O path at all.
const batchIOAvailable = false

// maxWireBatch bounds the datagrams passed to one flush (parity with the
// Linux build; the portable path still issues one syscall per datagram).
const maxWireBatch = 32

var errBatchUnsupported = errors.New("netfabric: vectored socket I/O unsupported")

// mmsgIO is unavailable off Linux: the provider always uses the portable
// one-datagram-per-syscall path. The type exists so provider code compiles
// identically; newBatchIO/newReadIO never hand out an instance.
type mmsgIO struct{}

func newBatchIO(net.PacketConn, []net.Addr) *mmsgIO { return nil }

func newReadIO(net.PacketConn) *mmsgIO { return nil }

func (m *mmsgIO) bindRead([][]byte) {}

func (m *mmsgIO) readBatch([]int, []rxCmsg) (int, error) { return 0, errBatchUnsupported }

func (m *mmsgIO) pollBatch([]int, []rxCmsg) (int, error) { return 0, errBatchUnsupported }

func (m *mmsgIO) writeBatch([][]byte, []int) error { return errBatchUnsupported }

func (m *mmsgIO) writeTrains([]gsoTrain) error { return errBatchUnsupported }
