package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// pins are the output digests of the default seed: the simulator
// workloads' report digests, and every job's result (and trace)
// digest by its index in the job list. spsd_mix and fleet_mix share
// them, since the fleet must return spsd's bytes. A change that is
// meant to alter simulated results updates them with --print-pins; a
// change that only makes the program faster must leave them alone.
var pins = map[string]string{
	"job/0":        "44e948c4165fa426",
	"job/1":        "ab3fe2bd11eba50f",
	"job/10":       "bb0392c7a2c1af0e",
	"job/11":       "79daa1e8bf8522db",
	"job/12":       "ab3fe2bd11eba50f",
	"job/13":       "ac9d9603643af354",
	"job/14":       "3a57bde4cb0e32bb",
	"job/15":       "ab3fe2bd11eba50f",
	"job/16":       "ddacf6436d9508db",
	"job/17":       "0a17b999416b0c29",
	"job/17/trace": "8ddb15c7b3eb8b41",
	"job/18":       "ab3fe2bd11eba50f",
	"job/19":       "e4ee79fb7ae58f6f",
	"job/2":        "a6b0f9ba66465839",
	"job/20":       "e3f0c24b57fa7dc5",
	"job/21":       "ab3fe2bd11eba50f",
	"job/22":       "a85106ae3d7535bf",
	"job/23":       "ab3fe2bd11eba50f",
	"job/24":       "2a0ad01f2fca2576",
	"job/25":       "ab3fe2bd11eba50f",
	"job/26":       "2f1e952fa67bca73",
	"job/27":       "ab3fe2bd11eba50f",
	"job/28":       "09d85f7e4bcc467b",
	"job/29":       "1a130462d37164cb",
	"job/3":        "ab3fe2bd11eba50f",
	"job/30":       "9fca343bc81c92e9",
	"job/31":       "81a39fa584fa8438",
	"job/32":       "c07fe87ec25a6bd3",
	"job/32/trace": "6af7636f689a7a99",
	"job/33":       "d1c70c680bc1a5be",
	"job/34":       "ab3fe2bd11eba50f",
	"job/35":       "d143f75d32db2b54",
	"job/36":       "ab3fe2bd11eba50f",
	"job/37":       "0620fd31130b625c",
	"job/38":       "ab3fe2bd11eba50f",
	"job/39":       "6e17fd08e69d0e05",
	"job/4":        "69a1c102efa9266f",
	"job/40":       "25c9ef444ca396df",
	"job/41":       "ab3fe2bd11eba50f",
	"job/42":       "36969064ed9bb930",
	"job/42/trace": "154b215aaad05bbc",
	"job/43":       "84d20384a8f6dddc",
	"job/44":       "ab3fe2bd11eba50f",
	"job/45":       "4ead08d675c739e4",
	"job/46":       "ea791262ed8ddaad",
	"job/47":       "ab3fe2bd11eba50f",
	"job/48":       "72d3e9b70a093f4f",
	"job/49":       "ab3fe2bd11eba50f",
	"job/5":        "9bd2f87b775bb188",
	"job/5/trace":  "433089ef8f145f8b",
	"job/50":       "bc48a4b4be62f06f",
	"job/51":       "cfdb13d267d713b9",
	"job/52":       "b3ca89976bebabe7",
	"job/53":       "ab3fe2bd11eba50f",
	"job/54":       "b85352c2d13d2cf7",
	"job/54/trace": "2fd3679c44f480fd",
	"job/55":       "0588e2bf166d6b6c",
	"job/56":       "ab3fe2bd11eba50f",
	"job/57":       "73e55114cc0c7784",
	"job/58":       "ab3fe2bd11eba50f",
	"job/59":       "1278cb6129b913a4",
	"job/6":        "ab3fe2bd11eba50f",
	"job/7":        "8d1c2493887961ec",
	"job/8":        "ab3fe2bd11eba50f",
	"job/9":        "1eed7555be4f8056",
	"sps_full":     "a1bdecca149f0a4b",
	"switch64":     "c1c5f9969ce66c16",
}

// shortDigest names output bytes: the first 16 hex digits of their
// SHA-256.
func shortDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])[:16]
}

// expectations holds the expected output digests of one run: the pins
// for the default seed, otherwise the first digest seen under each key.
type expectations struct {
	mu     sync.Mutex
	pinned bool
	want   map[string]string
}

func newExpectations(seed uint64) *expectations {
	e := &expectations{want: map[string]string{}}
	if seed == defaultSeed {
		for k, v := range pins {
			e.want[k] = v
		}
		e.pinned = true
	}
	return e
}

// check compares a digest under a key against the expectation,
// adopting it as the expectation when there is none yet, and returns
// the problem if they differ.
func (e *expectations) check(key, got string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	want, ok := e.want[key]
	if !ok {
		if e.pinned {
			return fmt.Sprintf("%s: digest %s has no pin", key, got)
		}
		e.want[key] = got
		return ""
	}
	if got != want {
		return fmt.Sprintf("%s: digest %s, want %s", key, got, want)
	}
	return ""
}

// printPins runs each output once at the default seed and prints the
// digests in the form of the pins map.
func printPins() error {
	out := map[string]string{}
	for _, w := range []struct {
		name  string
		setup func(uint64) (simRunner, error)
	}{{"switch64", setupSwitch64}, {"sps_full", setupSPSFull}} {
		run, err := w.setup(defaultSeed)
		if err != nil {
			return err
		}
		o, err := run(1, nil)
		if err != nil {
			return err
		}
		d, _, probs := checkReports(o.reports)
		if len(probs) > 0 {
			return fmt.Errorf("%s: %s", w.name, probs[0])
		}
		out[w.name] = d
	}
	r := &jobRunner{
		list:   jobList(defaultSeed),
		cl:     newClient(),
		expect: &expectations{want: map[string]string{}},
		hs:     startHeapSampler(jobHeapPoll),
		res:    newResult(),
	}
	defer r.hs.stop()
	if _, err := r.round(false); err != nil {
		return err
	}
	if len(r.res.problems) > 0 {
		return fmt.Errorf("job list: %s", r.res.problems[0])
	}
	for k, v := range r.expect.want {
		out[k] = v
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("\t%q: %q,\n", k, out[k])
	}
	return nil
}
