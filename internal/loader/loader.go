// Package loader models the dynamic linker's view of a Gingerbread system:
// a catalog of shared objects (sizes in the ballpark of a real Android 2.3.7
// /system/lib) and per-process link maps. Each library is mapped as a single
// named VMA; instruction fetches against it populate the paper's Figure 1
// (code regions) and data references against the same name populate Figure 2
// — exactly as in the paper, where "libdvm.so" appears in both legends.
package loader

import (
	"fmt"
	"sort"

	"agave/internal/mem"
)

// Library describes one shared object image.
type Library struct {
	Name string
	Size uint64 // text+data footprint, bytes
}

// KB is a byte-size helper for catalog literals.
const KB = 1024

// Catalog is the Gingerbread /system/lib inventory used by the reproduction.
// Sizes are rough footprints; the names are what matters for the figures.
var Catalog = []Library{
	{"libc.so", 280 * KB},
	{"libm.so", 96 * KB},
	{"libstdc++.so", 8 * KB},
	{"liblog.so", 8 * KB},
	{"libcutils.so", 48 * KB},
	{"libutils.so", 168 * KB},
	{"libbinder.so", 120 * KB},
	{"libz.so", 72 * KB},
	{"libexpat.so", 112 * KB},
	{"libcrypto.so", 960 * KB},
	{"libssl.so", 184 * KB},
	{"libicuuc.so", 800 * KB},
	{"libicui18n.so", 1100 * KB},
	{"libsqlite.so", 336 * KB},
	{"libdvm.so", 1200 * KB},
	{"libnativehelper.so", 20 * KB},
	{"libandroid_runtime.so", 1100 * KB},
	{"libskia.so", 1600 * KB},
	{"libpixelflinger.so", 64 * KB},
	{"libui.so", 40 * KB},
	{"libsurfaceflinger.so", 224 * KB},
	{"libsurfaceflinger_client.so", 72 * KB},
	{"libEGL.so", 56 * KB},
	{"libGLESv1_CM.so", 24 * KB},
	{"libGLESv2.so", 16 * KB},
	{"libagl.so", 160 * KB},
	{"libhardware.so", 8 * KB},
	{"libhardware_legacy.so", 56 * KB},
	{"libmedia.so", 400 * KB},
	{"libmediaplayerservice.so", 160 * KB},
	{"libstagefright.so", 800 * KB},
	{"libstagefright_omx.so", 96 * KB},
	{"libstagefright_color_conversion.so", 16 * KB},
	{"libaudioflinger.so", 200 * KB},
	{"libsonivox.so", 240 * KB},
	{"libvorbisidec.so", 120 * KB},
	{"libspeex.so", 80 * KB},
	{"libwebcore.so", 3600 * KB},
	{"libchromium_net.so", 800 * KB},
	{"libdbus.so", 120 * KB},
	{"libbluetoothd.so", 240 * KB},
	{"libnetutils.so", 16 * KB},
	{"libwpa_client.so", 8 * KB},
	{"libcamera_client.so", 72 * KB},
	{"libcameraservice.so", 64 * KB},
	{"libsystem_server.so", 24 * KB},
	{"libemoji.so", 8 * KB},
	{"libjpeg.so", 160 * KB},
	{"libpagemap.so", 8 * KB},
	{"libdrm1.so", 40 * KB},
	{"libthread_db.so", 8 * KB},
	{"linker", 64 * KB},
	{"libgabi++.so", 16 * KB},
	{"libttspico.so", 320 * KB},
	{"libsoundpool.so", 24 * KB},
	{"libgps.so", 80 * KB},
	{"librilutils.so", 16 * KB},
	{"libril.so", 48 * KB},
	{"libreference-ril.so", 40 * KB},
	{"libvold.so", 72 * KB},
	{"libkeystore.so", 24 * KB},
	{"libdiskconfig.so", 12 * KB},
	{"libsensorservice.so", 56 * KB},
}

// App-visible framework dex images (mapped from /data/dalvik-cache on a real
// device). Bytecode fetches are *data reads* against these regions.
var FrameworkDex = []Library{
	{"core.jar@classes.dex", 2800 * KB},
	{"framework.jar@classes.dex", 6200 * KB},
	{"services.jar@classes.dex", 1800 * KB},
	{"ext.jar@classes.dex", 900 * KB},
	{"android.policy.jar@classes.dex", 220 * KB},
	{"core-junit.jar@classes.dex", 40 * KB},
}

// catalogIndex is built lazily over Catalog plus FrameworkDex.
var catalogIndex map[string]Library

func init() {
	catalogIndex = make(map[string]Library, len(Catalog)+len(FrameworkDex))
	for _, l := range Catalog {
		catalogIndex[l.Name] = l
	}
	for _, l := range FrameworkDex {
		catalogIndex[l.Name] = l
	}
}

// Lookup finds a catalog entry by name.
func Lookup(name string) (Library, bool) {
	l, ok := catalogIndex[name]
	return l, ok
}

// BaseSet is the library set every Android process maps (zygote preloads
// these, so every forked process inherits them).
func BaseSet() []string {
	return []string{
		"linker", "libc.so", "libm.so", "libstdc++.so", "liblog.so",
		"libcutils.so", "libutils.so", "libbinder.so", "libz.so",
		"libexpat.so", "libicuuc.so", "libicui18n.so", "libsqlite.so",
		"libdvm.so", "libnativehelper.so", "libandroid_runtime.so",
		"libskia.so", "libui.so", "libsurfaceflinger_client.so",
		"libEGL.so", "libGLESv1_CM.so", "libagl.so", "libpixelflinger.so",
		"libhardware.so", "libmedia.so", "libcamera_client.so",
		"libemoji.so", "libjpeg.so", "libcrypto.so", "libssl.so",
		"libsonivox.so", "libsoundpool.so", "libwebcore.so",
		"libchromium_net.so", "libnetutils.so", "libwpa_client.so",
		"libthread_db.so", "libgabi++.so", "libspeex.so", "libdrm1.so",
		"core.jar@classes.dex", "framework.jar@classes.dex",
		"ext.jar@classes.dex",
	}
}

// SystemServerSet extends the base set with the services the system_server
// process hosts (SurfaceFlinger, sensors, policy).
func SystemServerSet() []string {
	return append(BaseSet(),
		"libsurfaceflinger.so", "libsystem_server.so", "libsensorservice.so",
		"libhardware_legacy.so", "libdbus.so", "libbluetoothd.so", "libgps.so",
		"services.jar@classes.dex", "android.policy.jar@classes.dex",
	)
}

// MediaServerSet extends the base set with the media service stack.
func MediaServerSet() []string {
	return append(BaseSet(),
		"libmediaplayerservice.so", "libstagefright.so",
		"libstagefright_omx.so", "libstagefright_color_conversion.so",
		"libaudioflinger.so", "libvorbisidec.so", "libcameraservice.so",
	)
}

// LinkMap is a process's set of mapped libraries: each library's text
// mapping, by name.
type LinkMap struct {
	images map[string]*mem.VMA
}

// Load maps every named library into as (using layout's bump pointer) and
// returns the link map. Unknown names are mapped with a default small
// footprint so app-private libraries ("libdoom.so") need no catalog entry.
func Load(as *mem.AddressSpace, layout *mem.Layout, names []string) *LinkMap {
	lm := &LinkMap{images: make(map[string]*mem.VMA, len(names))}
	for _, name := range names {
		lm.LoadOne(as, layout, name)
	}
	return lm
}

// LoadOne maps a single library if not already present and returns its
// text mapping.
func (lm *LinkMap) LoadOne(as *mem.AddressSpace, layout *mem.Layout, name string) *mem.VMA {
	if v, ok := lm.images[name]; ok {
		return v
	}
	lib, ok := Lookup(name)
	if !ok {
		lib = Library{Name: name, Size: 160 * KB}
	}
	text, _ := layout.MapLibrary(as, lib.Name, lib.Size, 0)
	lm.images[name] = text
	return text
}

// Rebind builds a link map over an address space that already holds (some
// of) the named mappings — the situation after fork, where the child
// inherited the parent's libraries. Names not yet mapped are loaded.
func Rebind(as *mem.AddressSpace, layout *mem.Layout, names []string) *LinkMap {
	lm := &LinkMap{images: make(map[string]*mem.VMA, len(names))}
	for _, name := range names {
		if v := as.FindByName(name); v != nil {
			lm.images[name] = v
			continue
		}
		lm.LoadOne(as, layout, name)
	}
	return lm
}

// VMA returns the mapping of the named library, panicking when absent —
// a workload model referencing an unmapped library is a bug.
func (lm *LinkMap) VMA(name string) *mem.VMA {
	v, ok := lm.images[name]
	if !ok {
		panic(fmt.Sprintf("loader: library %q not mapped", name))
	}
	return v
}

// Names lists mapped library names, sorted for deterministic iteration.
func (lm *LinkMap) Names() []string {
	out := make([]string, 0, len(lm.images))
	for n := range lm.images {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
