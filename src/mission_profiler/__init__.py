"""Detection of on-mission social media profiles from timeline data.

The pipeline ingests profile timelines, attaches external toxicity and
bot scores, distributes tweets over modeled topics and eight thematic
categories, groups profiles by the entropy of their category mix,
computes a per-profile metric battery, designates on-mission clusters in
a chosen diversity group, and trains classifiers to flag similar
profiles in the remaining groups.
"""

__version__ = "0.1.0"
