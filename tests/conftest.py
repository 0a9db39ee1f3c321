import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# the same examples on every run, so a defect that only a property test
# catches is caught every time, not by chance of the draw
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
