package coordinator

import (
	"fmt"
	"reflect"
	"testing"

	"mana/internal/memsim"
	"mana/internal/rank"
)

// imageDigest is the checkpoint fingerprint of a one-image link.
func imageDigest(img rank.Image) uint64 {
	d := newDigest()
	digestImage(d, img)
	return d.sum()
}

// perturb changes a scalar field to a different value of its type. It
// fails the test for a kind it cannot change, so a new field of an
// unforeseen type is reported rather than silently skipped.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no perturbation for kind %s; extend perturb or digest the field explicitly", name, v.Kind())
	}
}

// digestTestImages returns a full and a delta image with every field the
// digest covers set to a non-zero value.
func digestTestImages() []rank.Image {
	stats := rank.Stats{}
	sv := reflect.ValueOf(&stats).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.CanInt() {
			f.SetInt(int64(100 + i))
		} else {
			f.SetUint(uint64(100 + i))
		}
	}
	full := rank.Image{RankID: 3, PC: 7, Clock: 11, Seq: 1, Full: true, Complete: true, Stats: stats}
	delta := full
	delta.Full = false
	delta.Seq, delta.Base = 2, 1
	delta.Delta = memsim.Delta{Brk: 0x1000, Regions: []memsim.RegionDelta{{
		Name: "app.state", Half: memsim.UpperHalf, Kind: memsim.KindData,
		Addr: 0x4000, Size: 8192, DataLen: 8192,
		Pages: []memsim.PageDelta{{Index: 1, Hash: 0xabcdef, Data: make([]byte, memsim.PageSize)}},
	}}}
	return []rank.Image{full, delta}
}

// TestDigestCoversEveryStatsField changes each rank.Stats field alone, on
// a full and on a delta image, and requires the checkpoint fingerprint to
// change: a field added to Stats but not to digestStats fails here.
func TestDigestCoversEveryStatsField(t *testing.T) {
	for _, base := range digestTestImages() {
		want := imageDigest(base)
		typ := reflect.TypeOf(base.Stats)
		for i := 0; i < typ.NumField(); i++ {
			img := base
			name := fmt.Sprintf("Stats.%s (full=%v)", typ.Field(i).Name, base.Full)
			perturb(t, name, reflect.ValueOf(&img.Stats).Elem().Field(i))
			if imageDigest(img) == want {
				t.Errorf("%s does not reach the checkpoint fingerprint", name)
			}
		}
	}
}

// TestDigestCoversEveryDeltaField does the same for every field of
// memsim.RegionDelta and memsim.PageDelta. PageDelta.Data is the one
// field deliberately left out: the digest carries its Hash instead, and
// Delta.Verify ties the two together.
func TestDigestCoversEveryDeltaField(t *testing.T) {
	undigested := map[string]bool{"PageDelta.Data": true}
	base := digestTestImages()[1]
	want := imageDigest(base)
	// clone deep-copies the single region and page so a perturbation
	// never reaches the base image.
	clone := func() rank.Image {
		img := base
		rd := base.Delta.Regions[0]
		rd.Pages = append([]memsim.PageDelta(nil), rd.Pages...)
		img.Delta.Regions = []memsim.RegionDelta{rd}
		return img
	}
	check := func(name string, mutate func(img *rank.Image) reflect.Value) {
		if undigested[name] {
			return
		}
		img := clone()
		perturb(t, name, mutate(&img))
		if imageDigest(img) == want {
			t.Errorf("%s does not reach the checkpoint fingerprint", name)
		}
	}
	rdType := reflect.TypeOf(memsim.RegionDelta{})
	for i := 0; i < rdType.NumField(); i++ {
		f := rdType.Field(i)
		if f.Name == "Pages" {
			pType := reflect.TypeOf(memsim.PageDelta{})
			for j := 0; j < pType.NumField(); j++ {
				check("PageDelta."+pType.Field(j).Name, func(img *rank.Image) reflect.Value {
					return reflect.ValueOf(&img.Delta.Regions[0].Pages[0]).Elem().Field(j)
				})
			}
			continue
		}
		check("RegionDelta."+f.Name, func(img *rank.Image) reflect.Value {
			return reflect.ValueOf(&img.Delta.Regions[0]).Elem().Field(i)
		})
	}
}
