//go:build linux && (amd64 || arm64)

// Vectored datagram I/O: sendmmsg/recvmmsg move a burst of datagrams per
// syscall instead of one, which is where most of the UDP provider's
// per-message cost over the simulated fabric went (DESIGN.md §10). The
// provider falls back to the portable one-datagram-per-syscall path when the
// socket cannot expose a raw descriptor or the kernel rejects the calls.
package netfabric

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// batchIOAvailable reports whether this build has a vectored I/O path at all.
const batchIOAvailable = true

// maxWireBatch bounds the datagrams passed to one sendmmsg call.
const maxWireBatch = 32

// mmsghdr mirrors struct mmsghdr on linux/{amd64,arm64}: a msghdr plus the
// kernel-filled datagram length, padded to 8 bytes.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// errBatchUnsupported marks a kernel/socket that cannot do vectored I/O;
// the provider downgrades to the single-syscall path permanently.
var errBatchUnsupported = errors.New("netfabric: vectored socket I/O unsupported")

// mmsgIO drives sendmmsg/recvmmsg over the provider's socket via its raw
// descriptor. Reads fill the buffers bound by bindRead, so each driver has
// one reading owner: a shard's reader goroutine, or the progress path's
// poller under the shard's poll lock. Writes are serialized by wmu
// (concurrent senders batch under the provider's transmit lock anyway).
type mmsgIO struct {
	rc   syscall.RawConn
	rsas [][]byte // encoded sockaddr per peer rank; nil at self

	rbufs  [][]byte // read buffers the rhdrs are bound to
	riovs  []syscall.Iovec
	rhdrs  []mmsghdr
	rctrls [][]byte // per-datagram ancillary buffers (UDP_GRO, SO_RXQ_OVFL)

	wmu    sync.Mutex
	wiovs  []syscall.Iovec
	whdrs  []mmsghdr
	wctrls [][]byte        // per-entry UDP_SEGMENT cmsg buffers for GSO trains
	tiovs  []syscall.Iovec // scatter-gather iovecs for writeTrains, grown on demand

	// The RawConn callbacks are bound once (newMmsgIO), so a poll or a
	// burst hands RawConn a stored func instead of allocating a closure per
	// call; each reports through the fields beside it. The read side
	// belongs to the driver's one reading owner, the write side to wmu.
	readFn  func(fd uintptr) bool // readBatch: recvmmsg, waiting on EAGAIN
	pollFn  func(fd uintptr)      // pollBatch: one recvmmsg
	rn      int
	rerr    syscall.Errno
	writeFn func(fd uintptr) bool // sendmmsg of whdrs[:wbatch]
	wbatch  int
	wn      int
	werr    syscall.Errno
}

// newMmsgIO builds a driver over rc with its RawConn callbacks bound.
func newMmsgIO(rc syscall.RawConn) *mmsgIO {
	m := &mmsgIO{rc: rc}
	m.readFn = func(fd uintptr) bool {
		m.rn, m.rerr = m.recvmmsg(fd)
		return m.rerr != syscall.EAGAIN && m.rerr != syscall.EINTR
	}
	m.pollFn = func(fd uintptr) { m.rn, m.rerr = m.recvmmsg(fd) }
	m.writeFn = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&m.whdrs[0])), uintptr(m.wbatch),
			syscall.MSG_DONTWAIT, 0, 0)
		m.wn, m.werr = int(r), e
		return e != syscall.EAGAIN && e != syscall.EINTR // else wait for writability
	}
	return m
}

// newBatchIO builds the vectored I/O driver, or returns nil when conn or the
// peer addresses cannot support it (non-UDP conn, exotic address family).
func newBatchIO(conn net.PacketConn, peers []net.Addr) *mmsgIO {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	m := newMmsgIO(rc)
	m.rsas = make([][]byte, len(peers))
	for r, a := range peers {
		if a == nil {
			continue
		}
		ua, ok := a.(*net.UDPAddr)
		if !ok {
			return nil
		}
		rsa := sockaddrBytes(ua)
		if rsa == nil {
			return nil
		}
		m.rsas[r] = rsa
	}
	m.wiovs = make([]syscall.Iovec, maxWireBatch)
	m.whdrs = make([]mmsghdr, maxWireBatch)
	m.wctrls = make([][]byte, maxWireBatch)
	for i := range m.wctrls {
		m.wctrls[i] = make([]byte, cmsgSpaceGSO)
	}
	return m
}

// newReadIO builds a read-only vectored driver for one reader-shard socket
// (no peer sockaddr table; writes always go through the primary driver).
func newReadIO(conn net.PacketConn) *mmsgIO {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return newMmsgIO(rc)
}

// sockaddrBytes encodes a UDP address as a raw kernel sockaddr.
func sockaddrBytes(a *net.UDPAddr) []byte {
	if ip4 := a.IP.To4(); ip4 != nil {
		var rsa syscall.RawSockaddrInet4
		rsa.Family = syscall.AF_INET
		rsa.Port = uint16(a.Port>>8) | uint16(a.Port&0xff)<<8 // network byte order
		copy(rsa.Addr[:], ip4)
		b := make([]byte, syscall.SizeofSockaddrInet4)
		copy(b, (*[syscall.SizeofSockaddrInet4]byte)(unsafe.Pointer(&rsa))[:])
		return b
	}
	if ip6 := a.IP.To16(); ip6 != nil {
		var rsa syscall.RawSockaddrInet6
		rsa.Family = syscall.AF_INET6
		rsa.Port = uint16(a.Port>>8) | uint16(a.Port&0xff)<<8
		copy(rsa.Addr[:], ip6)
		b := make([]byte, syscall.SizeofSockaddrInet6)
		copy(b, (*[syscall.SizeofSockaddrInet6]byte)(unsafe.Pointer(&rsa))[:])
		return b
	}
	return nil
}

// bindRead points the receive headers at the reader's buffer set once; the
// buffers are reused across readBatch calls.
func (m *mmsgIO) bindRead(bufs [][]byte) {
	m.rbufs = bufs
	m.riovs = make([]syscall.Iovec, len(bufs))
	m.rhdrs = make([]mmsghdr, len(bufs))
	m.rctrls = make([][]byte, len(bufs))
	for i, b := range bufs {
		m.riovs[i].Base = &b[0]
		m.riovs[i].SetLen(len(b))
		m.rhdrs[i].hdr.Iov = &m.riovs[i]
		m.rhdrs[i].hdr.Iovlen = 1
		m.rctrls[i] = make([]byte, rxCtrlLen)
		m.rhdrs[i].hdr.Control = &m.rctrls[i][0]
	}
}

// readBatch pulls up to len(m.rbufs) datagrams in one recvmmsg, blocking
// until at least one arrives or the conn's read deadline expires (the error
// then satisfies net.Error.Timeout, like ReadFrom). sizes[i] receives the
// i-th datagram's length and cms[i] its parsed ancillary data (GRO segment
// size, kernel drop count). Returns errBatchUnsupported when the kernel
// refuses the syscall so the caller can downgrade.
func (m *mmsgIO) readBatch(sizes []int, cms []rxCmsg) (int, error) {
	// readFn reports EAGAIN as "not done", so Read waits for readability
	// (respecting the read deadline) and returns only on data or error.
	if err := m.rc.Read(m.readFn); err != nil {
		return 0, err // deadline exceeded or socket closed
	}
	if m.rerr != 0 {
		return 0, recvErr(m.rerr)
	}
	m.parseRead(m.rn, sizes, cms)
	return m.rn, nil
}

// pollBatch is readBatch's never-blocking twin for the progress path: one
// recvmmsg, returning 0 when the socket queue is empty. It runs under
// RawConn.Control rather than RawConn.Read because Read takes the fd's read
// lock, which the shard's reader goroutine holds while parked in the
// netpoller — the poller would queue behind it instead of draining the
// socket. The caller must own m's buffers exclusively.
func (m *mmsgIO) pollBatch(sizes []int, cms []rxCmsg) (int, error) {
	if err := m.rc.Control(m.pollFn); err != nil {
		return 0, err // socket closed
	}
	switch m.rerr {
	case 0:
	case syscall.EAGAIN, syscall.EINTR:
		return 0, nil
	default:
		return 0, recvErr(m.rerr)
	}
	m.parseRead(m.rn, sizes, cms)
	return m.rn, nil
}

// recvmmsg issues one non-blocking recvmmsg into the bound read buffers.
func (m *mmsgIO) recvmmsg(fd uintptr) (int, syscall.Errno) {
	// The kernel overwrites msg_controllen per message; re-arm every entry.
	for i := range m.rhdrs {
		m.rhdrs[i].hdr.SetControllen(rxCtrlLen)
	}
	r, _, e := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&m.rhdrs[0])), uintptr(len(m.rhdrs)),
		syscall.MSG_DONTWAIT, 0, 0)
	runtime.KeepAlive(m.rbufs)
	runtime.KeepAlive(m.rctrls)
	return int(r), e
}

// recvErr maps a recvmmsg failure: a kernel without the call downgrades
// the shard, anything else is a transient socket error.
func recvErr(e syscall.Errno) error {
	if e == syscall.ENOSYS || e == syscall.EOPNOTSUPP {
		return errBatchUnsupported
	}
	return e
}

// parseRead copies the kernel-filled lengths and ancillary data of the
// first n received datagrams out of the headers.
func (m *mmsgIO) parseRead(n int, sizes []int, cms []rxCmsg) {
	for i := 0; i < n; i++ {
		sizes[i] = int(m.rhdrs[i].len)
		if cl := m.rhdrs[i].hdr.Controllen; cl > 0 {
			cms[i] = parseRxCmsg(m.rctrls[i][:cl])
		} else {
			cms[i] = rxCmsg{}
		}
	}
}

// writeBatch sends pkts[i] to peer rank dsts[i], batching up to maxWireBatch
// datagrams per sendmmsg. A full socket buffer waits for writability; any
// other kernel refusal is returned so the caller can fall back to WriteTo
// (re-sending a prefix twice is harmless — the reliability layer dedups).
func (m *mmsgIO) writeBatch(pkts [][]byte, dsts []int) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	for off := 0; off < len(pkts); {
		batch := len(pkts) - off
		if batch > maxWireBatch {
			batch = maxWireBatch
		}
		for i := 0; i < batch; i++ {
			pk := pkts[off+i]
			rsa := m.rsas[dsts[off+i]]
			m.wiovs[i].Base = &pk[0]
			m.wiovs[i].SetLen(len(pk))
			h := &m.whdrs[i].hdr
			h.Name = &rsa[0]
			h.Namelen = uint32(len(rsa))
			h.Iov = &m.wiovs[i]
			h.Iovlen = 1
			h.Control = nil // headers are shared with writeTrains
			h.SetControllen(0)
			m.whdrs[i].len = 0
		}
		m.wbatch = batch
		err := m.rc.Write(m.writeFn)
		runtime.KeepAlive(pkts)
		if err != nil {
			return err
		}
		switch m.werr {
		case 0:
		case syscall.ENOSYS, syscall.EOPNOTSUPP:
			return errBatchUnsupported
		default:
			return m.werr
		}
		if m.wn <= 0 {
			return errBatchUnsupported // zero progress: do not spin here
		}
		off += m.wn
	}
	return nil
}

// writeTrains sends a burst of GSO trains, batching up to maxWireBatch
// kernel entries per sendmmsg. Each train's datagrams are passed as one
// iovec per packet — the kernel gathers them, so no user-space assembly
// copy — and multi-segment trains carry a UDP_SEGMENT cmsg telling it to
// re-split the gathered payload into wire datagrams of seg bytes. Any
// refusal other than back-pressure is returned so the caller can downgrade
// to plain vectored I/O and re-send (a duplicated prefix is harmless — the
// window dedups).
func (m *mmsgIO) writeTrains(trains []gsoTrain) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	for off := 0; off < len(trains); {
		batch := len(trains) - off
		if batch > maxWireBatch {
			batch = maxWireBatch
		}
		// Size the iovec block first: header Iov pointers must stay stable,
		// so the slice cannot grow while being filled.
		need := 0
		for i := 0; i < batch; i++ {
			need += len(trains[off+i].pkts)
		}
		if cap(m.tiovs) < need {
			m.tiovs = make([]syscall.Iovec, need)
		}
		m.tiovs = m.tiovs[:need]
		base := 0
		for i := 0; i < batch; i++ {
			tr := trains[off+i]
			rsa := m.rsas[tr.dst]
			for k, pk := range tr.pkts {
				m.tiovs[base+k].Base = &pk[0]
				m.tiovs[base+k].SetLen(len(pk))
			}
			h := &m.whdrs[i].hdr
			h.Name = &rsa[0]
			h.Namelen = uint32(len(rsa))
			h.Iov = &m.tiovs[base]
			h.Iovlen = uint64(len(tr.pkts))
			if tr.n > 1 {
				ctrl := m.wctrls[i]
				h.Control = &ctrl[0]
				h.SetControllen(putGSOSegment(ctrl, uint16(tr.seg)))
			} else {
				h.Control = nil
				h.SetControllen(0)
			}
			m.whdrs[i].len = 0
			base += len(tr.pkts)
		}
		m.wbatch = batch
		err := m.rc.Write(m.writeFn)
		runtime.KeepAlive(trains)
		runtime.KeepAlive(m.wctrls)
		if err != nil {
			return err
		}
		// EINVAL/EIO etc.: the kernel rejected a segment train — report it
		// so the provider retires the GSO tier.
		if m.werr != 0 || m.wn <= 0 {
			return errBatchUnsupported
		}
		off += m.wn
	}
	return nil
}
