/* The DEW walk over flat node storage: a line-for-line port of the walk
 * loop in repro.core.dew.DewSimulator.run_blocks.
 *
 * Every node field is one array.  Level k's nodes start at node offsets[k],
 * a block maps to node offsets[k] + (block & masks[k]), and a node's A
 * tag-list entries start at node * A.  Tags, MRA tags and MRE tags are
 * int64 and hold block + 1; wave pointers, MRE wave pointers and FIFO
 * pointers are int32 (the paper's 32-bit pointers) and wave pointers hold
 * way + 1.  So 0 means invalid or empty and zero-filled storage is an
 * empty tree.
 *
 * Every write lands on a node whose MRA slot the walk has just set, or on
 * the wave pointer of that node's parent entry, and no MRA slot is ever
 * cleared: the nodes with a non-zero MRA are exactly the nodes to zero
 * when the storage is recycled (repro.core.tree).
 *
 * tally receives, per level k, the MRA matches at 2k and the misses at
 * 2k + 1, then the wave decisions, wave hits, MRE decisions and entries
 * compared by searches; the caller derives every other counter from them.
 */
#include <stdint.h>

void dew_walk(const int64_t *blocks, int64_t count, int64_t levels,
              int64_t associativity, const int64_t *masks,
              const int64_t *offsets, int64_t *tags, int32_t *waves,
              int64_t *mra, int64_t *mre_tag, int32_t *mre_wave,
              int32_t *fifo_ptr, int64_t enable_mra, int64_t enable_wave,
              int64_t enable_mre, int64_t *tally)
{
    int64_t n_wave = 0, n_wave_hit = 0, n_mre = 0, n_examined = 0;
    /* The root (and, with Property 2 off, a node below an MRA match) has no
     * parent entry whose wave pointer needs refreshing. */
    int32_t no_parent = 0;

    for (int64_t k = 0; k < 2 * levels; k++)
        tally[k] = 0;

    for (int64_t i = 0; i < count; i++) {
        const int64_t block = blocks[i];
        const int64_t tag = block + 1;
        /* Wave pointer and matching entry carried down from the parent. */
        int64_t incoming_wave = 0;
        int32_t *parent_wave = &no_parent;

        for (int64_t level = 0; level < levels; level++) {
            const int64_t node = offsets[level] + (block & masks[level]);

            /* Property 2 (MRA). */
            if (mra[node] == tag) {
                tally[2 * level]++;
                if (enable_mra)
                    break;
                incoming_wave = 0;
                parent_wave = &no_parent;
                continue;
            }

            int64_t *node_tags = tags + node * associativity;
            int32_t *node_waves = waves + node * associativity;
            int64_t way = -1;
            if (enable_wave && incoming_wave) {
                /* Property 3: probe the way the parent last saw. */
                n_wave++;
                if (node_tags[incoming_wave - 1] == tag) {
                    way = incoming_wave - 1;
                    n_wave_hit++;
                }
            } else if (enable_mre && mre_tag[node] == tag) {
                /* Property 4: the most recently evicted tag is absent. */
                n_mre++;
            } else {
                /* Tag-list search; valid ways are always a prefix. */
                int64_t w = 0;
                while (w < associativity && node_tags[w] != tag)
                    w++;
                if (w < associativity) {
                    way = w;
                    n_examined += w + 1;
                } else if (node_tags[associativity - 1] == 0) {
                    n_examined += fifo_ptr[node];
                } else {
                    n_examined += associativity;
                }
            }

            mra[node] = tag;
            if (way >= 0) {
                /* Algorithm 1: Handle_hit. */
                *parent_wave = way + 1;
                parent_wave = node_waves + way;
                incoming_wave = *parent_wave;
            } else {
                /* Algorithm 2: Handle_miss. */
                tally[2 * level + 1]++;
                const int64_t victim = fifo_ptr[node];
                *parent_wave = victim + 1;
                parent_wave = node_waves + victim;
                const int64_t displaced_tag = node_tags[victim];
                node_tags[victim] = tag;
                if (mre_tag[node] == tag) {
                    /* Re-insert the evicted tag, recycling its wave pointer. */
                    incoming_wave = mre_wave[node];
                    mre_tag[node] = displaced_tag;
                    mre_wave[node] = *parent_wave;
                } else {
                    incoming_wave = 0;
                    if (displaced_tag != 0) {
                        mre_tag[node] = displaced_tag;
                        mre_wave[node] = *parent_wave;
                    }
                }
                *parent_wave = incoming_wave;
                fifo_ptr[node] = victim + 1 == associativity ? 0 : victim + 1;
            }
        }
    }

    tally[2 * levels] = n_wave;
    tally[2 * levels + 1] = n_wave_hit;
    tally[2 * levels + 2] = n_mre;
    tally[2 * levels + 3] = n_examined;
}
