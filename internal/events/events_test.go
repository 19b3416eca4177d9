package events

import "testing"

func TestClassExtraction(t *testing.T) {
	cases := []struct {
		ty Type
		cl Class
	}{
		{EvRunning, ClassState},
		{EvDispatch, ClassSystem},
		{EvGlobalClock, ClassSystem},
		{EvMPISend, ClassMPI},
		{EvMPIAllgather, ClassMPI},
		{EvMarkerBegin, ClassUser},
	}
	for _, c := range cases {
		if got := c.ty.Class(); got != c.cl {
			t.Errorf("%s class = %#x, want %#x", c.ty.Name(), got, c.cl)
		}
	}
}

func TestNames(t *testing.T) {
	if EvMPISend.Name() != "MPI_Send" {
		t.Errorf("EvMPISend name = %q", EvMPISend.Name())
	}
	if EvRunning.Name() != "Running" {
		t.Errorf("EvRunning name = %q", EvRunning.Name())
	}
	if got := Type(0xbeef).Name(); got != "Type(0xbeef)" {
		t.Errorf("unknown type name = %q", got)
	}
	// Every one of the 65 536 codes names exactly as the map the dense
	// table replaced did.
	for c := 0; c <= 0xffff; c++ {
		ty := Type(c)
		want, ok := nameMap[ty]
		if !ok {
			want = "Type(0x" + hex4(uint16(c)) + ")"
		}
		if got := ty.Name(); got != want {
			t.Fatalf("Type(%#04x).Name() = %q, want %q", c, got, want)
		}
	}
}

// nameMap is the map Type.Name consulted before the dense table.
var nameMap = map[Type]string{
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

func TestAllMPITypesNamed(t *testing.T) {
	for _, ty := range MPITypes {
		if ty.Name()[:4] != "MPI_" {
			t.Errorf("MPI type %#x has non-MPI name %q", ty, ty.Name())
		}
		if !IsMPI(ty) {
			t.Errorf("%s not recognized as MPI", ty.Name())
		}
	}
}

func TestIsCollective(t *testing.T) {
	coll := map[Type]bool{
		EvMPIBarrier: true, EvMPIBcast: true, EvMPIReduce: true,
		EvMPIAllreduce: true, EvMPIAlltoall: true, EvMPIGather: true,
		EvMPIScatter: true, EvMPIAllgather: true, EvMPIScan: true,
		EvMPIRedScat: true,
	}
	for _, ty := range MPITypes {
		if IsCollective(ty) != coll[ty] {
			t.Errorf("IsCollective(%s) = %v", ty.Name(), IsCollective(ty))
		}
	}
}

func TestIsPointToPoint(t *testing.T) {
	p2p := []Type{EvMPISend, EvMPIRecv, EvMPIIsend, EvMPIIrecv, EvMPISendrecv}
	for _, ty := range p2p {
		if !IsPointToPoint(ty) {
			t.Errorf("IsPointToPoint(%s) = false", ty.Name())
		}
	}
	for _, ty := range []Type{EvMPIBarrier, EvMPIWait, EvRunning, EvDispatch} {
		if IsPointToPoint(ty) {
			t.Errorf("IsPointToPoint(%s) = true", ty.Name())
		}
	}
}

func TestMaskEnabled(t *testing.T) {
	if MaskNone.Enabled(EvGlobalClock) {
		t.Error("MaskNone should disable everything, even clock records")
	}
	m := MaskMPI
	if !m.Enabled(EvMPISend) {
		t.Error("MaskMPI should enable MPI_Send")
	}
	if m.Enabled(EvDispatch) {
		t.Error("MaskMPI should not enable Dispatch")
	}
	// Infrastructure records ride along with any enabled class.
	if !m.Enabled(EvGlobalClock) || !m.Enabled(EvThreadInfo) {
		t.Error("clock/thread-info records must be enabled with any class")
	}
	if !MaskAll.Enabled(EvDispatch) || !MaskAll.Enabled(EvMarkerBegin) {
		t.Error("MaskAll should enable all classes")
	}
}

func TestStateTypesContainAllStates(t *testing.T) {
	if StateTypes[0] != EvRunning || StateTypes[1] != EvMarkerState {
		t.Fatalf("StateTypes prefix wrong: %v", StateTypes[:2])
	}
	if len(StateTypes) != 2+len(MPITypes)+len(IOTypes) {
		t.Fatalf("StateTypes has %d entries, want %d", len(StateTypes), 2+len(MPITypes)+len(IOTypes))
	}
}

func TestIOClass(t *testing.T) {
	for _, ty := range IOTypes {
		if !IsIO(ty) {
			t.Errorf("IsIO(%s) = false", ty.Name())
		}
		if IsMPI(ty) {
			t.Errorf("IO type %s classified as MPI", ty.Name())
		}
	}
	if !MaskAll.Enabled(EvIORead) || !MaskAll.Enabled(EvPageMiss) {
		t.Error("MaskAll should enable I/O events")
	}
	if MaskMPI.Enabled(EvIORead) {
		t.Error("MaskMPI should not enable I/O events")
	}
	if EvIORead.Name() != "IO_Read" || EvPageMiss.Name() != "PageMiss" {
		t.Error("I/O names wrong")
	}
}

func TestExtraFieldsDefinedForAllStates(t *testing.T) {
	for _, ty := range StateTypes {
		fs := ExtraFields(ty)
		if fs == nil {
			t.Errorf("no extra fields defined for %s", ty.Name())
		}
		seen := map[string]bool{}
		for _, f := range fs {
			if seen[f] {
				t.Errorf("%s has duplicate field %q", ty.Name(), f)
			}
			seen[f] = true
		}
	}
	if ExtraFields(EvDispatch) != nil {
		t.Error("dispatch events should have no interval fields")
	}
}

func TestSendHasMsgSizeSent(t *testing.T) {
	// Figure 5 of the paper depends on this field existing on sends.
	for _, ty := range []Type{EvMPISend, EvMPIIsend, EvMPISendrecv} {
		if !HasField(ty, FieldMsgSizeSent) {
			t.Errorf("%s lacks msgSizeSent", ty.Name())
		}
	}
	if HasField(EvMPIRecv, FieldMsgSizeSent) {
		t.Error("MPI_Recv should not have msgSizeSent")
	}
}

func TestEdgeString(t *testing.T) {
	if Point.String() != "point" || Entry.String() != "entry" || Exit.String() != "exit" {
		t.Error("edge names wrong")
	}
	if Edge(9).String() != "edge?" {
		t.Error("unknown edge name wrong")
	}
}

func TestThreadTypeName(t *testing.T) {
	if ThreadTypeName(ThreadMPI) != "mpi" || ThreadTypeName(ThreadUser) != "user" ||
		ThreadTypeName(ThreadSystem) != "system" || ThreadTypeName(7) != "unknown" {
		t.Error("thread type names wrong")
	}
}
