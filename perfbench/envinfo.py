"""Environment fingerprint attached to every benchmark run."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
from importlib import metadata
from pathlib import Path
from typing import Dict, Optional


def _cpuinfo() -> Dict[str, object]:
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and model == "unknown":
                model = value.strip()
            elif key == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return {
        "cpu_model": model,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "fma": "fma" in flags,
    }


def _caches() -> Dict[str, str]:
    out: Dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        out[f"L{level}"] = size
    return out


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def gcc_version() -> Optional[str]:
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    try:
        first = subprocess.run(
            [gcc, "--version"], capture_output=True, text=True, timeout=30, check=True
        ).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        return None
    return first[0] if first else None


def fingerprint() -> Dict[str, object]:
    import numpy

    return {
        **_cpuinfo(),
        "caches": _caches(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "gcc": gcc_version(),
    }
