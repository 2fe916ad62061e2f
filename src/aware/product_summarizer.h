// Main-memory structure-aware VarOpt sampling for product structures
// (Section 4, general case):
//   1. compute IPPS probabilities and set aside every key with p = 1;
//   2. build KD-HIERARCHY over the remaining keys (mass = probability);
//   3. aggregate bottom-up along the kd-tree (lowest-LCA rule).
//
// The discrepancy on an axis-parallel box R behaves like a VarOpt sample on
// a subset of expected size mu <= min{p(R), 2d s^((d-1)/d)} (Appendix E).
//
// The product sampler is the kd kind of the one structure-aware pipeline,
// AwareSummarizeInto with AwareStructure::Kd (aware/aware_summarize.h);
// this header names its stages for phase-by-phase callers: KdHierarchy::
// BuildInto builds step 2 over scratch storage and KdAggregate runs step 3.

#ifndef SAS_AWARE_PRODUCT_SUMMARIZER_H_
#define SAS_AWARE_PRODUCT_SUMMARIZER_H_

#include "aware/aware_summarize.h"
#include "aware/kd_hierarchy.h"
#include "aware/summarize_scratch.h"

#endif  // SAS_AWARE_PRODUCT_SUMMARIZER_H_
