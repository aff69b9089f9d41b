package loadgen

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// noKnob names the Config fields that are deliberately not load-run
// parameters: nothing reads them (see each field's doc), so they have no
// knob row and no flag or JSON key to round-trip.
var noKnob = map[string]bool{"FlushInterval": true}

// fullConfig returns a Config with every knob field set to a distinct
// non-zero, non-default value (by reflection, so a new field is covered
// the day it is added).
func fullConfig(t *testing.T) Config {
	t.Helper()
	var c Config
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if noKnob[v.Type().Field(i).Name] {
			continue
		}
		switch f.Interface().(type) {
		case string:
			f.SetString(fmt.Sprintf("value-%d", i))
		case bool:
			f.SetBool(true)
		case int, int64:
			f.SetInt(int64(100 + i))
		case float64:
			f.SetFloat(float64(i) + 0.25)
		case time.Duration:
			f.SetInt(int64(time.Duration(1000+i) * time.Microsecond))
		default:
			t.Fatalf("Config.%s has type %s, which the knob table does not handle", v.Type().Field(i).Name, f.Type())
		}
	}
	return c
}

// TestKnobTableCoversConfig is the guard on the one-definition rule:
// every exported Config field but the noKnob ones has exactly one knob
// row, and no two rows share a flag name or a JSON key. Adding a Config
// field without a row fails here.
func TestKnobTableCoversConfig(t *testing.T) {
	var c Config
	v := reflect.ValueOf(&c).Elem()
	rows := map[string]int{} // field name -> rows pointing at it
	flags, keys := map[string]bool{}, map[string]bool{}
	for _, k := range knobs {
		if k.flag == "" || k.key == "" || k.help == "" {
			t.Errorf("knob %+v lacks a flag name, a JSON key or help", k)
		}
		if flags[k.flag] {
			t.Errorf("flag -%s appears in two rows", k.flag)
		}
		if keys[k.key] {
			t.Errorf("JSON key %q appears in two rows", k.key)
		}
		flags[k.flag], keys[k.key] = true, true
		ptr := reflect.ValueOf(k.field(&c)).Pointer()
		owner := ""
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Addr().Pointer() == ptr {
				owner = v.Type().Field(i).Name
			}
		}
		if owner == "" {
			t.Errorf("knob -%s does not point at a Config field", k.flag)
		}
		rows[owner]++
		_, isDuration := k.field(&c).(*time.Duration)
		if isDuration != (k.unit != 0) {
			t.Errorf("knob -%s: a unit belongs on duration knobs and only there", k.flag)
		}
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		want := 1
		if noKnob[f.Name] {
			want = 0
		}
		if f.IsExported() && rows[f.Name] != want {
			t.Errorf("Config.%s has %d knob rows, want exactly %d (add a row to knobs in knobs.go)", f.Name, rows[f.Name], want)
		}
	}
}

// TestConfigJSONRoundTrip: Config -> JSON -> Config is the identity on
// a fully populated config, every key of the table is emitted, and an
// unknown or mistyped key is rejected.
func TestConfigJSONRoundTrip(t *testing.T) {
	want := fullConfig(t)
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(knobs) {
		t.Fatalf("encoded %d keys for %d knobs: %s", len(keys), len(knobs), data)
	}
	var got Config
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("JSON round trip:\n got %+v\nwant %+v", got, want)
	}
	// Durations travel as plain numbers in the key's unit.
	units, err := json.Marshal(Config{FlushEvery: 250 * time.Microsecond, Warmup: 1500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if s := string(units); !strings.Contains(s, `"flush_every_ms":0.25,`) || !strings.Contains(s, `"warmup_ms":1.5,`) {
		t.Fatalf("duration encoding: %s", s)
	}
	// A partial object sets only what it names.
	part := Config{Clients: 7}
	if err := json.Unmarshal([]byte(`{"batch": 8, "duration_ms": 1500}`), &part); err != nil {
		t.Fatal(err)
	}
	if part.Clients != 7 || part.MaxBatch != 8 || part.Duration != 1500*time.Millisecond {
		t.Fatalf("partial decode: %+v", part)
	}
	for _, bad := range []string{`{"bogus": 1}`, `{"batch": "many"}`, `{"batch": 1.5}`, `{"warmup_ms": true}`} {
		if err := json.Unmarshal([]byte(bad), new(Config)); err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
}

// TestConfigFlagRoundTrip: rendering a fully populated config as
// flexload arguments and parsing them back is the identity, and the
// flag defaults are Defaults().
func TestConfigFlagRoundTrip(t *testing.T) {
	want := fullConfig(t)
	var args []string
	for _, k := range knobs {
		args = append(args, fmt.Sprintf("-%s=%v", k.flag, reflect.ValueOf(k.field(&want)).Elem()))
	}
	fs := flag.NewFlagSet("flexload", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	got := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v (args %s)", err, strings.Join(args, " "))
	}
	if *got != want {
		t.Fatalf("flag round trip:\n got %+v\nwant %+v", *got, want)
	}

	fs = flag.NewFlagSet("flexload", flag.ContinueOnError)
	def := AddFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *def != Defaults() {
		t.Fatalf("flag defaults %+v differ from Defaults() %+v", *def, Defaults())
	}
}

// TestTraceSampleOneRule pins the knob's single meaning — negative =
// off, 0 = default 16 — in both spellings, and the flag's historical
// "0 disables" as a parse adapter onto that rule.
func TestTraceSampleOneRule(t *testing.T) {
	for _, tc := range []struct {
		json, flag string
		want       int
	}{
		{`{}`, "", 16},
		{`{"trace_sample": 0}`, "", 16},
		{`{"trace_sample": -1}`, "-trace-sample=-1", -1},
		{`{"trace_sample": 4}`, "-trace-sample=4", 4},
		{`{"trace_sample": -1}`, "-trace-sample=0", -1},
	} {
		var fromJSON Config
		if err := json.Unmarshal([]byte(tc.json), &fromJSON); err != nil {
			t.Fatal(err)
		}
		fs := flag.NewFlagSet("flexload", flag.ContinueOnError)
		fromFlag := AddFlags(fs)
		var args []string
		if tc.flag != "" {
			args = []string{tc.flag}
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*Config{"json " + tc.json: &fromJSON, "flag " + tc.flag: fromFlag} {
			if err := c.Fill(); err != nil {
				t.Fatal(err)
			}
			if c.TraceSample != tc.want {
				t.Fatalf("%s: effective trace sample %d, want %d", name, c.TraceSample, tc.want)
			}
			data, _ := json.Marshal(*c)
			if !strings.Contains(string(data), fmt.Sprintf(`"trace_sample":%d`, tc.want)) {
				t.Fatalf("%s: artefact does not record the effective value %d: %s", name, tc.want, data)
			}
		}
	}
}
