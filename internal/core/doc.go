// Package lci implements the Lightweight Communication Interface, the
// paper's contribution: a thin communication runtime for irregular,
// many-threaded graph-analytics communication.
//
// # The Queue interface
//
// LCI exposes the paper's Queue interface:
//
//   - SendEnq (Algorithm 1) initiates a send. It may fail — returning ok ==
//     false — when the packet pool is exhausted; the failure is not fatal and
//     the caller simply retries later. This is the back-pressure mechanism
//     MPI lacks.
//   - RecvDeq (Algorithm 2) initiates a receive. It may fail when no message
//     is pending. There is no tag matching and no ordering enforcement: the
//     first packet to arrive is the first returned (the first-packet policy).
//   - Progress (Algorithm 3) is the communication server step: it polls the
//     network and runs the per-packet-type callback. A dedicated server
//     goroutine calls it in a loop (Serve), and any other goroutine may call
//     it too: a per-endpoint lock serializes the passes, and a caller that
//     finds it held returns at once. On a provider whose doorbell covers
//     every event (fabric.Parker, the simulated fabric) an idle server
//     parks on that doorbell instead of polling.
//
// Completion is a single atomic flag on the Request: callers poll
// Request.Done(), which is one atomic load — not a function call that, like
// MPI_Test, performs a network poll.
//
// # Protocols
//
// Messages at or below the eager limit use the EGR protocol: the payload is
// copied into a pool packet and injected immediately; the send request
// completes as soon as the network accepts the packet. Larger messages use
// the rendezvous protocol: an RTS control packet carries the size and the
// sender's request id; the receiver, inside RecvDeq, allocates the target
// buffer, registers it with the NIC and answers with RTR; the server then
// issues the RDMA put (lc_put) straight from the user's source buffer, and
// the put-completion immediate word completes the receiver's request.
//
// # Flow control
//
// The global concurrent packet pool is bounded; its size caps the injection
// rate exactly as in the paper ("the size of the packet pool determines the
// maximum injection rate"). When the fabric itself refuses an operation
// (ring full), the packet is parked on an internal outbox that the server
// flushes — callers never observe a fatal resource error.
package lci
