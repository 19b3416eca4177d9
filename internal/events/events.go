// Package events defines the event-type space of the unified tracing
// facility: the hook identifiers for system events (thread dispatch,
// global clock records), MPI events (one per traced routine, cut at
// entry and exit like the PMPI wrappers of the paper), and user marker
// events, together with their payload layouts and human-readable names.
//
// An event type's high byte is its class, which is what the trace
// options enable or disable ("events to be traced", paper §2.1).
package events

// Type identifies an event kind; it is the "event type" part of the
// hookword. The high byte is the Class.
type Type uint16

// Class groups event types for enable/disable masks.
type Class uint8

// Event classes.
const (
	ClassState  Class = 0x00 // synthetic interval states (never in raw traces)
	ClassSystem Class = 0x01 // thread dispatching, clock records
	ClassMPI    Class = 0x02 // MPI routine entry/exit
	ClassUser   Class = 0x04 // user-defined markers
	ClassIO     Class = 0x05 // file I/O and paging activity (the paper's
	// Summary names these as the natural future extension)
)

// Class returns the class of t.
func (t Type) Class() Class { return Class(t >> 8) }

// Synthetic interval states produced by the convert utility.
const (
	EvRunning     Type = 0x0010 // thread running outside MPI and markers
	EvMarkerState Type = 0x0011 // region between a user marker begin and end
)

// System events.
const (
	EvDispatch    Type = 0x0101 // thread dispatched onto a CPU; args: cpu
	EvUndispatch  Type = 0x0102 // thread taken off a CPU; args: cpu, reason
	EvThreadInfo  Type = 0x0103 // registry: args: pid, systid, taskid, threadType
	EvGlobalClock Type = 0x0110 // global clock record; args: global timestamp
)

// Undispatch reasons (args[1] of EvUndispatch).
const (
	UndispatchQuantum = 0 // time slice expired, thread still runnable
	UndispatchBlock   = 1 // thread blocked (e.g. inside an MPI wait)
	UndispatchExit    = 2 // thread terminated
)

// MPI events. Entry and exit records share the type; the record's Edge
// distinguishes them.
const (
	EvMPISend      Type = 0x0201
	EvMPIRecv      Type = 0x0202
	EvMPIIsend     Type = 0x0203
	EvMPIIrecv     Type = 0x0204
	EvMPIWait      Type = 0x0205
	EvMPIWaitall   Type = 0x0206
	EvMPISendrecv  Type = 0x0207
	EvMPIBarrier   Type = 0x0210
	EvMPIBcast     Type = 0x0211
	EvMPIReduce    Type = 0x0212
	EvMPIAllreduce Type = 0x0213
	EvMPIAlltoall  Type = 0x0214
	EvMPIGather    Type = 0x0215
	EvMPIScatter   Type = 0x0216
	EvMPIAllgather Type = 0x0217
	EvMPIScan      Type = 0x0218
	EvMPIRedScat   Type = 0x0219
	EvMPISsend     Type = 0x0208
)

// User marker events.
const (
	EvMarkerDefine Type = 0x0401 // args: localMarkerID; string payload: marker name
	EvMarkerBegin  Type = 0x0402 // args: localMarkerID, addr
	EvMarkerEnd    Type = 0x0403 // args: localMarkerID, addr
)

// I/O and paging events (§5's future extension). Reads and writes are
// entry/exit states like MPI calls; page misses are point events that
// become zero-duration intervals.
const (
	EvIORead   Type = 0x0501
	EvIOWrite  Type = 0x0502
	EvPageMiss Type = 0x0510
)

// Edge distinguishes entry/exit records of a state-like event from
// point events.
type Edge uint8

// Edge values.
const (
	Point Edge = 0 // instantaneous event (dispatch, clock record, marker define)
	Entry Edge = 1 // start of an MPI call
	Exit  Edge = 2 // end of an MPI call
)

// String returns the edge name.
func (e Edge) String() string {
	switch e {
	case Point:
		return "point"
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	}
	return "edge?"
}

// names is a dense table indexed by Type (a sparse array literal sized
// by its largest key, like extraFields): Name is called per record by
// the statistics kernels, the /records encoder and the renderers.
var names = [...]string{
	EvRunning:      "Running",
	EvMarkerState:  "Marker",
	EvDispatch:     "Dispatch",
	EvUndispatch:   "Undispatch",
	EvThreadInfo:   "ThreadInfo",
	EvGlobalClock:  "GlobalClock",
	EvMPISend:      "MPI_Send",
	EvMPIRecv:      "MPI_Recv",
	EvMPIIsend:     "MPI_Isend",
	EvMPIIrecv:     "MPI_Irecv",
	EvMPIWait:      "MPI_Wait",
	EvMPIWaitall:   "MPI_Waitall",
	EvMPISendrecv:  "MPI_Sendrecv",
	EvMPIBarrier:   "MPI_Barrier",
	EvMPIBcast:     "MPI_Bcast",
	EvMPIReduce:    "MPI_Reduce",
	EvMPIAllreduce: "MPI_Allreduce",
	EvMPIAlltoall:  "MPI_Alltoall",
	EvMPIGather:    "MPI_Gather",
	EvMPIScatter:   "MPI_Scatter",
	EvMPIAllgather: "MPI_Allgather",
	EvMPIScan:      "MPI_Scan",
	EvMPIRedScat:   "MPI_Reduce_scatter",
	EvMPISsend:     "MPI_Ssend",
	EvMarkerDefine: "MarkerDefine",
	EvMarkerBegin:  "MarkerBegin",
	EvMarkerEnd:    "MarkerEnd",
	EvIORead:       "IO_Read",
	EvIOWrite:      "IO_Write",
	EvPageMiss:     "PageMiss",
}

// Name returns the canonical name of t, or a hex form for unknown types.
func (t Type) Name() string {
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return "Type(0x" + hex4(uint16(t)) + ")"
}

func hex4(v uint16) string {
	const digits = "0123456789abcdef"
	return string([]byte{
		digits[v>>12&0xf], digits[v>>8&0xf], digits[v>>4&0xf], digits[v&0xf],
	})
}

// MPITypes lists every MPI event type, in ascending order. The slice is
// shared; callers must not modify it.
var MPITypes = []Type{
	EvMPISend, EvMPISsend, EvMPIRecv, EvMPIIsend, EvMPIIrecv, EvMPIWait,
	EvMPIWaitall, EvMPISendrecv, EvMPIBarrier, EvMPIBcast, EvMPIReduce,
	EvMPIAllreduce, EvMPIAlltoall, EvMPIGather, EvMPIScatter, EvMPIAllgather,
	EvMPIScan, EvMPIRedScat,
}

// IsMPI reports whether t is an MPI routine event.
func IsMPI(t Type) bool { return t.Class() == ClassMPI }

// IsCollective reports whether t is a collective MPI routine.
func IsCollective(t Type) bool { return t >= EvMPIBarrier && t <= EvMPIRedScat }

// IsPointToPoint reports whether t is a point-to-point MPI routine whose
// records carry a message sequence number.
func IsPointToPoint(t Type) bool {
	switch t {
	case EvMPISend, EvMPISsend, EvMPIRecv, EvMPIIsend, EvMPIIrecv, EvMPISendrecv:
		return true
	}
	return false
}

// IOTypes lists the I/O-class state types.
var IOTypes = []Type{EvIORead, EvIOWrite, EvPageMiss}

// IsIO reports whether t is an I/O-class event.
func IsIO(t Type) bool { return t.Class() == ClassIO }

// StateTypes lists every event type that becomes an interval state in
// converted files (MPI routines, I/O activity, plus the synthetic
// states). The slice is shared; callers must not modify it.
var StateTypes = func() []Type {
	ts := []Type{EvRunning, EvMarkerState}
	ts = append(ts, MPITypes...)
	return append(ts, IOTypes...)
}()

// Mask is a set of event classes enabled for tracing.
type Mask uint32

// Mask presets.
const (
	MaskNone   Mask = 0
	MaskSystem Mask = 1 << uint(ClassSystem)
	MaskMPI    Mask = 1 << uint(ClassMPI)
	MaskUser   Mask = 1 << uint(ClassUser)
	MaskIO     Mask = 1 << uint(ClassIO)
	MaskAll    Mask = MaskSystem | MaskMPI | MaskUser | MaskIO
)

// Enabled reports whether events of type t pass the mask. ThreadInfo and
// GlobalClock records are always cut when any class is enabled, because
// conversion and merging cannot work without them.
func (m Mask) Enabled(t Type) bool {
	if m == MaskNone {
		return false
	}
	if t == EvThreadInfo || t == EvGlobalClock {
		return true
	}
	return m&(1<<uint(t.Class())) != 0
}

// Thread categories of the interval file thread table (paper §2.3.3:
// "Threads in a thread table are partitioned into three categories").
const (
	ThreadMPI    = 0
	ThreadUser   = 1
	ThreadSystem = 2
)

// ThreadTypeName names a thread-table category.
func ThreadTypeName(tt int) string {
	switch tt {
	case ThreadMPI:
		return "mpi"
	case ThreadUser:
		return "user"
	case ThreadSystem:
		return "system"
	}
	return "unknown"
}
