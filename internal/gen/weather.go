package gen

import (
	"math/rand"

	"ccubing/internal/core"
	"ccubing/internal/table"
)

// WeatherDims is the dimension roster of the paper's weather dataset
// (SEP83L.DAT, Hahn et al., as selected in Sec. 5): name and cardinality.
// The real file is not redistributable/reachable offline, so Weather below
// synthesizes a relation with the same roster and the same *dependence
// structure* the paper relies on (listed at Weather).
var WeatherDims = []struct {
	Name string
	Card int
}{
	{"ymdh", 238},       // year-month-day-hour bucket
	{"latitude", 5260},  //
	{"longitude", 6187}, //
	{"station", 6515},   //
	{"weather", 100},    // present weather code
	{"change", 110},     // change code
	{"solar", 1535},     // solar altitude
	{"lunar", 155},      // relative lunar illuminance
}

// WeatherTuples is the tuple count of the paper's weather dataset.
const WeatherTuples = 1002752

// Weather synthesizes a weather-like relation with n tuples over the first
// nd dimensions of WeatherDims (the paper selects 5..8). The generator
// plants the functional dependencies the paper calls out:
//
//   - station determines latitude and longitude (a ship/land station sits at
//     a fixed grid cell, with occasional ship drift noise);
//   - solar altitude is a function of the (time bucket, latitude band) pair —
//     the paper's own dependence example — discretized to 1535 codes;
//   - the change code is correlated with the present-weather code;
//   - weather codes are Zipf-skewed (a few synoptic codes dominate), and
//     station reports are Zipf-skewed (busy stations report often).
//
// The result is large, high-cardinality and highly dependent — the data
// properties Figs. 7, 11, 16, 17 exercise.
func Weather(seed int64, n, nd int) (*table.Table, error) {
	if nd < 1 {
		nd = len(WeatherDims)
	}
	if nd > len(WeatherDims) {
		nd = len(WeatherDims)
	}
	if n < 1 {
		n = WeatherTuples
	}
	rng := rand.New(rand.NewSource(seed))
	full := len(WeatherDims)
	t := table.New(full, n)
	for d, wd := range WeatherDims {
		t.Names[d] = wd.Name
		t.Cards[d] = wd.Card
	}

	const (
		cYmdh    = 238
		cLat     = 5260
		cLon     = 6187
		cStation = 6515
		cWeather = 100
		cChange  = 110
		cSolar   = 1535
		cLunar   = 155
	)

	// Fixed per-station geography (functional dependency station -> lat/lon).
	stLat := make([]core.Value, cStation)
	stLon := make([]core.Value, cStation)
	stShip := make([]bool, cStation)
	for s := range stLat {
		stLat[s] = core.Value(rng.Intn(cLat))
		stLon[s] = core.Value(rng.Intn(cLon))
		stShip[s] = rng.Float64() < 0.2 // ships drift; land stations do not
	}

	stationZ := NewZipf(rng, 1.1, cStation)
	weatherZ := NewZipf(rng, 1.4, cWeather)
	timeZ := NewZipf(rng, 0.3, cYmdh)

	for i := 0; i < n; i++ {
		st := stationZ.Next()
		tm := timeZ.Next()
		lat := stLat[st]
		lon := stLon[st]
		if stShip[st] && rng.Float64() < 0.15 {
			// Ship drift: small positional jitter keeps the dependence
			// strong but not perfectly functional, like the real data.
			lat = core.Value((int(lat) + 1 + rng.Intn(3)) % cLat)
			lon = core.Value((int(lon) + 1 + rng.Intn(3)) % cLon)
		}
		wx := core.Value(weatherZ.Next())
		// Change code tracks the weather code: the synoptic "change" is
		// mostly determined by what the present weather is.
		ch := core.Value((int(wx)*7 + rng.Intn(8)) % cChange)
		// Solar altitude: deterministic in (time bucket, latitude band);
		// the paper: "when a certain weather condition appears at the same
		// time of the day, there is always a unique value for solar
		// altitude". Latitude bands of ~50 codes give plentiful repeats.
		band := int(lat) / 50
		solar := core.Value((tm*131 + band*17) % cSolar)
		// Lunar illuminance: a slow function of the time bucket plus noise.
		lunar := core.Value((tm/2 + rng.Intn(12)) % cLunar)

		t.Cols[0][i] = core.Value(tm)
		t.Cols[1][i] = lat
		t.Cols[2][i] = lon
		t.Cols[3][i] = core.Value(st)
		t.Cols[4][i] = wx
		t.Cols[5][i] = ch
		t.Cols[6][i] = solar
		t.Cols[7][i] = lunar
	}
	if nd == full {
		return t, nil
	}
	return t.SelectDims(nd)
}

// MustWeather is Weather for known-good arguments.
func MustWeather(seed int64, n, nd int) *table.Table {
	t, err := Weather(seed, n, nd)
	if err != nil {
		panic(err)
	}
	return t
}
