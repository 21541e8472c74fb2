package ops

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"strconv"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// PlotConfig controls the distributed plot operation.
type PlotConfig struct {
	// Width and Height of the output raster in pixels.
	Width, Height int
	// Extent is the world rectangle mapped onto the raster; when empty it
	// defaults to the file's index space (or data MBR for heap files).
	Extent geom.Rect
	// Out names the job's composited output file (default
	// file+".plot.out"). Concurrent plots of the same file must use
	// distinct names.
	Out string
}

// Plot rasterizes a points file into a density image, the visualization
// operation of the SpatialHadoop family (HadoopViz): every map task
// renders its partition into a partial raster, partial rasters are
// composited by summing counts, and the final image grades pixel
// intensity by point density. The returned image is ready for PNG
// encoding; EncodePlotPNG wraps that.
func Plot(sys *core.System, file string, cfg PlotConfig) (*image.Gray, *mapreduce.Report, error) {
	plan, err := planFile(sys, file)
	if err != nil {
		return nil, nil, err
	}
	return PlotCtx(context.Background(), sys, plan, cfg)
}

// PlotCtx is Plot driven by a bound plan and under a context: the plan's
// filter step over the extent picks the partitions, and the job runs
// through RunCtx (admission, cancellation, request-trace spans). Only the
// filter decisions feed the plan's partition heat: a plot has no match
// predicate.
func PlotCtx(ctx context.Context, sys *core.System, plan *Plan, cfg PlotConfig) (*image.Gray, *mapreduce.Report, error) {
	if cfg.Width <= 0 {
		cfg.Width = 512
	}
	if cfg.Height <= 0 {
		cfg.Height = 512
	}
	extent := cfg.Extent
	if extent.IsEmpty() || extent.Area() == 0 {
		if extent = plan.f.Space; extent.IsEmpty() {
			pts, err := sys.ReadPointsCtx(ctx, plan.f.Name)
			if err != nil {
				return nil, nil, err
			}
			extent = geom.RectOf(pts)
		}
	}
	if extent.IsEmpty() || extent.Width() <= 0 || extent.Height() <= 0 {
		return nil, nil, fmt.Errorf("ops: plot extent is empty")
	}

	counts := make([]uint32, cfg.Width*cfg.Height)
	out := cfg.Out
	if out == "" {
		out = plan.f.Name + ".plot.out"
	}
	kept, err := plan.Range(ctx, extent)
	if err != nil {
		return nil, nil, err
	}
	reducers := sys.Cluster().Workers()
	rep, err := plan.runJob(ctx, sys, &mapreduce.Job{
		Name: "plot",
		Kind: "plot",
		Conf: map[string]string{
			confPlotExtent:   geomio.EncodeRect(extent),
			confPlotWidth:    strconv.Itoa(cfg.Width),
			confPlotHeight:   strconv.Itoa(cfg.Height),
			confPlotReducers: strconv.Itoa(reducers),
		},
		NumReducers: reducers,
		Output:      out,
	}, kept)
	if err != nil {
		return nil, nil, err
	}
	recs, err := sys.FS().ReadAllCtx(ctx, out)
	if err != nil {
		return nil, nil, err
	}
	var max uint32
	for _, rec := range recs {
		pix, c, err := parsePixelCount(rec)
		if err != nil {
			return nil, nil, err
		}
		if pix >= 0 && pix < len(counts) {
			counts[pix] += c
			if counts[pix] > max {
				max = counts[pix]
			}
		}
	}

	img := image.NewGray(image.Rect(0, 0, cfg.Width, cfg.Height))
	if max > 0 {
		for i, c := range counts {
			if c == 0 {
				continue
			}
			// Square-root grading keeps sparse areas visible.
			v := 55 + 200*sqrtRatio(c, max)
			img.SetGray(i%cfg.Width, i/cfg.Width, color.Gray{Y: uint8(v)})
		}
	}
	return img, rep, nil
}

// plotMap is the plot job's map body: render the partition into a sparse
// partial raster and ship the non-zero pixels, mirroring HadoopViz's
// partial images, spread over the reducers by pixel.
func plotMap(extent geom.Rect, width, height, reducers int) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		local := make(map[int]uint32)
		pts, err := split.Points()
		if err != nil {
			return err
		}
		for _, p := range pts {
			px, py, ok := rasterize(p, extent, width, height)
			if !ok {
				continue
			}
			local[py*width+px]++
		}
		for pix, c := range local {
			ctx.Emit(strconv.Itoa(pix%reducers), fmt.Sprintf("%d:%d", pix, c))
		}
		ctx.Inc("plot.partial.pixels", int64(len(local)))
		return nil
	}
}

// plotReduce composites: it sums the partial counts per pixel.
func plotReduce(ctx *mapreduce.TaskContext, key string, values []string) error {
	sums := make(map[int]uint32)
	for _, v := range values {
		pix, c, err := parsePixelCount(v)
		if err != nil {
			return err
		}
		sums[pix] += c
	}
	for pix, c := range sums {
		ctx.Write(fmt.Sprintf("%d:%d", pix, c))
	}
	return nil
}

// rasterize maps a world point to pixel coordinates (y axis flipped so
// north is up).
// parsePixelCount parses a "pix:count" partial-raster record; this runs
// once per non-empty pixel per plot request, so it avoids the fmt
// scanner.
func parsePixelCount(s string) (int, uint32, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf("plot: bad pixel record %q", s)
	}
	pix, err := strconv.Atoi(s[:i])
	if err != nil {
		return 0, 0, fmt.Errorf("plot: bad pixel record %q: %v", s, err)
	}
	c, err := strconv.ParseUint(s[i+1:], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("plot: bad pixel record %q: %v", s, err)
	}
	return pix, uint32(c), nil
}

func rasterize(p geom.Point, extent geom.Rect, w, h int) (int, int, bool) {
	if !extent.ContainsPoint(p) {
		return 0, 0, false
	}
	px := int((p.X - extent.MinX) / extent.Width() * float64(w))
	py := int((extent.MaxY - p.Y) / extent.Height() * float64(h))
	if px >= w {
		px = w - 1
	}
	if py >= h {
		py = h - 1
	}
	return px, py, true
}

func sqrtRatio(c, max uint32) float64 {
	return math.Sqrt(float64(c) / float64(max))
}

// EncodePlotPNG renders the plot to PNG bytes.
func EncodePlotPNG(img *image.Gray) ([]byte, error) {
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// PlotDataURL is a convenience for embedding small plots in reports.
func PlotDataURL(img *image.Gray) (string, error) {
	b, err := EncodePlotPNG(img)
	if err != nil {
		return "", err
	}
	return "data:image/png;base64," + base64.StdEncoding.EncodeToString(b), nil
}
