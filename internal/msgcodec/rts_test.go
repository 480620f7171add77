package msgcodec

import (
	"reflect"
	"testing"
	"time"
)

// fillStats sets every number in v (an RTSStats or part of one) to n and
// every slice to one element of n, so a field Add forgets stands out.
func fillStats(v reflect.Value, n int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillStats(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillStats(v.Index(0), n)
	case reflect.Int, reflect.Int64:
		v.SetInt(n)
	case reflect.Uint64:
		v.SetUint(uint64(n))
	default:
		panic("RTSStats grew a field of kind " + v.Kind().String() + ": teach Add and this test about it")
	}
}

// Add is the one place member stats are combined, so a field it skips is
// silently zero in every composite's report. Every scalar sums and every
// slice concatenates in the order added — whatever fields RTSStats has.
func TestRTSStatsAddCoversEveryField(t *testing.T) {
	var a, b, sum RTSStats
	fillStats(reflect.ValueOf(&a).Elem(), 1)
	fillStats(reflect.ValueOf(&b).Elem(), 2)
	sum.Add(a)
	if !reflect.DeepEqual(sum, a) {
		t.Fatalf("zero.Add(a) = %+v, want a = %+v", sum, a)
	}
	sum.Add(b)

	var check func(path string, got, a, b reflect.Value)
	check = func(path string, got, a, b reflect.Value) {
		switch got.Kind() {
		case reflect.Struct:
			for i := 0; i < got.NumField(); i++ {
				check(path+"."+got.Type().Field(i).Name, got.Field(i), a.Field(i), b.Field(i))
			}
		case reflect.Slice:
			if want := reflect.AppendSlice(a, b); !reflect.DeepEqual(got.Interface(), want.Interface()) {
				t.Errorf("%s = %v, want a's then b's: %v", path, got, want)
			}
		case reflect.Uint64:
			if got.Uint() != a.Uint()+b.Uint() {
				t.Errorf("%s = %d, want %d", path, got.Uint(), a.Uint()+b.Uint())
			}
		default:
			if got.Int() != a.Int()+b.Int() {
				t.Errorf("%s = %d, want %d", path, got.Int(), a.Int()+b.Int())
			}
		}
	}
	check("RTSStats", reflect.ValueOf(sum), reflect.ValueOf(a), reflect.ValueOf(b))

	// Adding must not write through to a member's slices.
	if a.Store.SchedulerBusy[0] != time.Duration(1) || len(a.Store.ShardDepths) != 1 {
		t.Fatalf("Add changed its first member: %+v", a)
	}
}
