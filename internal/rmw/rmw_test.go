package rmw

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/umem"
)

func TestNewEntityLayout(t *testing.T) {
	space := umem.NewSpace(5)
	e := NewEntity(space, "lidar_rear/points_raw")
	if e.CBID == 0 {
		t.Fatal("zero handle")
	}
	cbid, err := space.ReadU64(e.Addr + umem.Addr(EntityCBIDOff))
	if err != nil || cbid != e.CBID {
		t.Fatalf("cbid field %#x err=%v", cbid, err)
	}
	namePtr, err := space.ReadU64(e.Addr + umem.Addr(EntityTopicPtrOff))
	if err != nil {
		t.Fatal(err)
	}
	name, err := space.ReadCString(umem.Addr(namePtr), 64)
	if err != nil || name != "lidar_rear/points_raw" {
		t.Fatalf("name %q err=%v", name, err)
	}
}

func TestEntitiesDistinct(t *testing.T) {
	space := umem.NewSpace(6)
	a := NewEntity(space, "/x")
	b := NewEntity(space, "/x")
	if a.CBID == b.CBID {
		t.Fatal("handles collide")
	}
}

// TestTakeWritesSrcTSBetweenProbes verifies the protocol the paper's srcTS
// technique depends on: at the entry firing the out-parameter is unset; by
// the exit firing it carries the sample's source timestamp.
func TestTakeWritesSrcTSBetweenProbes(t *testing.T) {
	space := umem.NewSpace(7)
	spaces := map[uint32]*umem.Space{7: space}
	rt := ebpf.NewRuntime(func() int64 { return 0 },
		func(pid uint32) *umem.Space { return spaces[pid] })

	var entrySrcAddr umem.Addr
	var entryVal, exitVal uint64
	rt.AttachNativeHook(SymTakeInt, ebpf.NativeHook{Fn: func(ctx *ebpf.ExecContext) {
		entrySrcAddr = umem.Addr(ctx.Words[2])
		entryVal, _ = space.ReadU64(entrySrcAddr)
	}})

	ent := NewEntity(space, "/scan")
	sample := &dds.Sample{Topic: "/scan", SrcTS: 987654321}
	ResolveTake(rt, SymTakeInt).Take(7, 0, space, space.AllocU64(0), ent, sample)

	if entrySrcAddr == 0 {
		t.Fatal("entry hook never ran")
	}
	if entryVal != 0 {
		t.Fatalf("srcTS already set at entry: %d", entryVal)
	}
	exitVal, _ = space.ReadU64(entrySrcAddr)
	if exitVal != 987654321 {
		t.Fatalf("srcTS after call = %d", exitVal)
	}
}

func TestCreateNodeFiresP1(t *testing.T) {
	space := umem.NewSpace(8)
	spaces := map[uint32]*umem.Space{8: space}
	rt := ebpf.NewRuntime(func() int64 { return 0 },
		func(pid uint32) *umem.Space { return spaces[pid] })
	var gotName string
	rt.AttachNativeHook(SymCreateNode, ebpf.NativeHook{Fn: func(ctx *ebpf.ExecContext) {
		gotName, _ = space.ReadCString(umem.Addr(ctx.Words[0]), 64)
	}})
	CreateNode(rt, 8, 0, space, "voxel_grid_cloud_node")
	if gotName != "voxel_grid_cloud_node" {
		t.Fatalf("name = %q", gotName)
	}
}
