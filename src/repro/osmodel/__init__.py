"""OS-level substrate: hosts, CPUs, disks, page cache, flush daemon.

This is where millibottlenecks come from.  Buffered log writes dirty
the page cache; the flush daemon periodically writes them back, and
during the write-back burst every core sits in iowait — a transient,
sub-second, full saturation of the host that the paper names a
*millibottleneck*.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.osmodel.host": ("Host", "DEFAULT_CORES"),
    "repro.osmodel.cpu": ("Cpu", "STALL_PRIORITY", "FOREGROUND_PRIORITY"),
    "repro.osmodel.disk": ("Disk", "DEFAULT_WRITE_BANDWIDTH"),
    "repro.osmodel.pagecache": ("PageCache",),
    "repro.osmodel.pdflush": ("FlushDaemon", "MillibottleneckRecord"),
    "repro.osmodel.profiles": ("MillibottleneckProfile",),
    "repro.osmodel.sources": ("TransientStallInjector",
                              "GarbageCollectionSource", "DvfsSource"),
})
