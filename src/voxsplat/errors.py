"""Exception types shared across the package."""


class VoxsplatError(Exception):
    """Base class for all errors raised by this package."""


class PlyParseError(VoxsplatError):
    """Malformed PLY header or payload; message names the offending element."""


class PlySchemaError(VoxsplatError):
    """Structurally valid PLY that is missing a required splat property."""


class CodebookCorruptionError(VoxsplatError):
    """Encoded index out of range for its codebook, or a damaged codebook file."""


class StoreFormatError(VoxsplatError):
    """Damaged or unsupported voxel-store file."""


class SceneMismatchError(VoxsplatError):
    """Two ledgers being compared were produced from different scenes."""


class CameraFormatError(VoxsplatError):
    """Camera JSON that is not an object, lacks a key, or holds an invalid value."""
