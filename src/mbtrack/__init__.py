"""Compressed-domain multi-object detection and tracking.

Objects are detected and tracked from P-frame macroblock features alone
(skip flags and coefficient masks) and their blobs are sharpened once
per GOP from partially decoded I-frame pixels. The stream format also
carries motion vectors, but the synthesizer writes zeros and the tracker
does not read them. A synthetic scene generator produces feature streams
with ground truth for end-to-end evaluation.
"""

from .filtering import (
    BlockGroup,
    Entity,
    EntityTracker,
    Label,
    OcclusionGroup,
    PsmfConfig,
    classify_entity,
    cluster_blocks,
    spatial_filter,
)
from .intra import (
    DecodeStats,
    IntraPayload,
    PixelTile,
    decode_full,
    decode_region_partial,
    decode_regions_partial,
    encode_iframe,
)
from .occlusion import (
    HueHistogram,
    hue_histogram,
    match_identities,
)
from .pipeline import Tracker, TrackerConfig, TrackRecord, evaluate, run_tracker
from .refinement import (
    BlobFeature,
    RefineConfig,
    background_subtract,
    interpolate_blobs,
    predict_blob,
)
from .scene import GroundTruthRecord, SceneScript, encode_p_frame, synthesize, synthesize_to
from .stream import (
    BackgroundChunk,
    Demand,
    FrameFeatures,
    MacroblockGrid,
    StreamHeader,
    read_stream,
    stream_to_bytes,
    write_stream,
)

__version__ = "0.1.0"
