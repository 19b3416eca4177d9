package events

// Extra interval-record field names, beyond the common fields that every
// interval record carries (paper §2.3.2). These names are what the
// statistics language and GetItemByName resolve; Figure 5 of the paper
// sums the "msgSizeSent" field.
const (
	FieldPeer        = "peer"        // p2p partner task, or root for rooted collectives
	FieldTag         = "tag"         // p2p message tag
	FieldMsgSizeSent = "msgSizeSent" // bytes sent by this call
	FieldMsgSizeRecv = "msgSizeRecv" // bytes received by this call
	FieldSeqno       = "seqno"       // per (src,dst) message sequence number
	FieldComm        = "comm"        // communicator id
	FieldRoot        = "root"        // root task of a rooted collective
	FieldCount       = "count"       // request count for Wait/Waitall
	FieldMarker      = "marker"      // user marker identifier
	FieldAddr        = "addr"        // instruction address (source browser hook)
	FieldEndAddr     = "endAddr"     // end-marker instruction address
	FieldGlobal      = "global"      // global timestamp of a clock record
	FieldRecvPeer    = "recvPeer"    // source of the receive half of Sendrecv
	FieldRecvSeqno   = "recvSeqno"   // seqno of the receive completed by Wait/Sendrecv
	FieldIOBytes     = "ioBytes"     // bytes moved by an I/O operation
)

// Common interval field names (paper §2.3.2: "record type, start time,
// duration, processor ID, node ID, and logical thread ID").
const (
	FieldType   = "type"
	FieldBebits = "bebits"
	FieldStart  = "start"
	FieldDura   = "dura"
	FieldCPU    = "cpu"
	FieldNode   = "node"
	FieldThread = "thread"
)

// CommonFields lists the common fields of every interval record, in
// on-disk order. The slice is shared; callers must not modify it.
var CommonFields = []string{
	FieldType, FieldBebits, FieldStart, FieldDura, FieldCPU, FieldNode, FieldThread,
}

// extraFields and vectorField are dense tables indexed by Type (sparse
// array literals, sized by their largest key): both are consulted on
// every interval-record encode and decode.
var extraFields = [...][]string{
	EvRunning:     {},
	EvGlobalClock: {FieldGlobal},
	EvMarkerState: {FieldMarker, FieldAddr, FieldEndAddr},
	EvMPISend:     {FieldPeer, FieldTag, FieldMsgSizeSent, FieldSeqno, FieldComm, FieldAddr},
	EvMPIIsend:    {FieldPeer, FieldTag, FieldMsgSizeSent, FieldSeqno, FieldComm, FieldAddr},
	EvMPIRecv:     {FieldPeer, FieldTag, FieldMsgSizeRecv, FieldSeqno, FieldComm, FieldAddr},
	EvMPIIrecv:    {FieldPeer, FieldTag, FieldMsgSizeRecv, FieldSeqno, FieldComm, FieldAddr},
	// Wait carries the completion envelope when the waited request was a
	// receive, so send/receive matching also works for Irecv+Wait pairs.
	EvMPIWait:      {FieldCount, FieldRecvPeer, FieldRecvSeqno, FieldMsgSizeRecv, FieldAddr},
	EvMPIWaitall:   {FieldCount, FieldAddr},
	EvMPISendrecv:  {FieldPeer, FieldTag, FieldMsgSizeSent, FieldMsgSizeRecv, FieldSeqno, FieldRecvPeer, FieldRecvSeqno, FieldComm, FieldAddr},
	EvMPIBarrier:   {FieldComm, FieldAddr},
	EvMPIBcast:     {FieldRoot, FieldMsgSizeSent, FieldComm, FieldAddr},
	EvMPIReduce:    {FieldRoot, FieldMsgSizeSent, FieldComm, FieldAddr},
	EvMPIAllreduce: {FieldMsgSizeSent, FieldComm, FieldAddr},
	EvMPIAlltoall:  {FieldMsgSizeSent, FieldMsgSizeRecv, FieldComm, FieldAddr},
	EvMPIGather:    {FieldRoot, FieldMsgSizeSent, FieldComm, FieldAddr},
	EvMPIScatter:   {FieldRoot, FieldMsgSizeRecv, FieldComm, FieldAddr},
	EvMPIAllgather: {FieldMsgSizeSent, FieldMsgSizeRecv, FieldComm, FieldAddr},
	EvMPIScan:      {FieldMsgSizeSent, FieldComm, FieldAddr},
	EvMPIRedScat:   {FieldMsgSizeSent, FieldMsgSizeRecv, FieldComm, FieldAddr},
	EvMPISsend:     {FieldPeer, FieldTag, FieldMsgSizeSent, FieldSeqno, FieldComm, FieldAddr},
	EvIORead:       {FieldIOBytes, FieldAddr},
	EvIOWrite:      {FieldIOBytes, FieldAddr},
	EvPageMiss:     {FieldAddr},
}

// ExtraFields returns the ordered extra field names of interval records
// of state type t (nil for unknown types). All extra fields are unsigned
// 64-bit scalars in the standard profile. The slice is shared; callers
// must not modify it.
func ExtraFields(t Type) []string {
	if int(t) < len(extraFields) {
		return extraFields[t]
	}
	return nil
}

// Vector field names. A state type may additionally carry one trailing
// vector field of unsigned 64-bit elements (the self-defining format
// supports arbitrary vector fields; the standard profile uses exactly
// one, on MPI_Waitall).
const (
	// FieldRecvEnvs is MPI_Waitall's vector of receive-completion
	// envelopes, flattened as (peer, seqno, bytes) triples — the
	// per-request information a single Wait carries in its scalar fields.
	FieldRecvEnvs = "recvEnvs"
)

var vectorField = [...]string{
	EvMPIWaitall: FieldRecvEnvs,
}

// VectorField returns the name of t's trailing vector field, or "".
func VectorField(t Type) string {
	if int(t) < len(vectorField) {
		return vectorField[t]
	}
	return ""
}

// HasField reports whether state type t carries the named extra field.
func HasField(t Type, name string) bool {
	for _, f := range ExtraFields(t) {
		if f == name {
			return true
		}
	}
	return false
}
