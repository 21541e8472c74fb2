package ops

import gio "spatialhadoop/internal/geomio"

type block interface{ Record(i int) string }

type output interface{ Write(rec string) }

func mapRegions(ctx output, blk block, n int) error {
	for i := 0; i < n; i++ {
		if _, err := gio.DecodeRegion(blk.Record(i)); err != nil {
			return err
		}
		ctx.Write(blk.Record(i))
	}
	return nil
}
