/* The DEW walk over node records: a port of the Python walk of
 * repro.core.dew.DewSimulator, plus a first-touch path it does not have.
 *
 * Each node is one record of record_size bytes (repro.core.tree's
 * record_dtype): the header below, the A int64 tags, then the A int32 wave
 * pointers.  Level k's nodes start at record offsets[k], and a block maps
 * to record offsets[k] + (block & masks[k]).  Tags hold block + 1 and wave
 * pointers way + 1, so 0 means invalid or empty.
 *
 * A record whose epoch is not the tree's is empty, whatever it holds: the
 * walk zeroes and stamps it when it first evaluates the node, before any
 * read.  Every other access is to that node or to the wave pointer of its
 * parent's entry, so emptying a tree is a new epoch, not a pass.  Epoch 0
 * marks a record no walk has written, which is still zero.
 *
 * first, when not NULL, marks each access that is its block's first touch
 * (Engine.run passes the trace's marks; chunks fed by hand pass NULL).  A
 * block never seen matches no MRA, wave or MRE tag, so a marked access is
 * a miss at every level and its walk decides nothing: it inserts the block
 * at each level's FIFO pointer, as a miss does, and tallies the miss and
 * the valid ways a search would have compared.
 *
 * tally receives, per level k, the MRA matches at 2k and the misses at
 * 2k + 1, then the wave decisions, wave hits, MRE decisions and entries
 * compared by searches; the caller derives every other counter from them.
 */
#include <stdint.h>
#include <string.h>

typedef struct {
    int64_t mra;      /* most recently accessed tag (Property 2) */
    int64_t mre_tag;  /* most recently evicted tag (Property 4) */
    int32_t mre_wave; /* the evicted entry's wave pointer */
    int32_t fifo_ptr; /* the next way to fill or evict */
    int64_t epoch;    /* the tree's epoch when the walk last wrote it */
    int64_t tags[];   /* A tags, then A int32 wave pointers */
} node_t;

/* The record at index, zeroed and stamped first if its epoch is stale. */
static inline node_t *node_at(char *records, int64_t record_size, int64_t index,
                              int64_t epoch)
{
    node_t *node = (node_t *)(records + index * record_size);
    if (node->epoch != epoch) {
        if (node->epoch)  /* epoch 0: never written, still zero */
            memset(node, 0, record_size);
        node->epoch = epoch;
    }
    return node;
}

void dew_walk(const int64_t *blocks, const uint8_t *first, int64_t count, int64_t levels,
              int64_t associativity, const int64_t *masks,
              const int64_t *offsets, char *records, int64_t record_size,
              int64_t enable_mra, int64_t enable_wave, int64_t enable_mre,
              int64_t *tally, int64_t epoch)
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

        if (first && first[i]) {
            /* A first touch: Handle_miss at every level, no MRE match. */
            for (int64_t level = 0; level < levels; level++) {
                node_t *node = node_at(records, record_size,
                                       offsets[level] + (block & masks[level]), epoch);
                int64_t *node_tags = node->tags;
                int32_t *node_waves = (int32_t *)(node->tags + associativity);
                const int64_t victim = node->fifo_ptr;
                const int64_t displaced_tag = node_tags[victim];
                node->mra = tag;
                tally[2 * level + 1]++;
                *parent_wave = victim + 1;
                parent_wave = node_waves + victim;
                node_tags[victim] = tag;
                /* The set is full exactly when the victim way is valid. */
                if (displaced_tag != 0) {
                    n_examined += associativity;
                    node->mre_tag = displaced_tag;
                    node->mre_wave = *parent_wave;
                } else {
                    n_examined += victim;
                }
                *parent_wave = 0;
                node->fifo_ptr = victim + 1 == associativity ? 0 : victim + 1;
            }
            continue;
        }

        for (int64_t level = 0; level < levels; level++) {
            node_t *node = node_at(records, record_size,
                                   offsets[level] + (block & masks[level]), epoch);

            /* Property 2 (MRA). */
            if (node->mra == tag) {
                tally[2 * level]++;
                if (enable_mra)
                    break;
                incoming_wave = 0;
                parent_wave = &no_parent;
                continue;
            }

            int64_t *node_tags = node->tags;
            int32_t *node_waves = (int32_t *)(node->tags + associativity);
            int64_t way = -1;
            if (enable_wave && incoming_wave) {
                /* Property 3: probe the way the parent last saw. */
                n_wave++;
                if (node_tags[incoming_wave - 1] == tag) {
                    way = incoming_wave - 1;
                    n_wave_hit++;
                }
            } else if (enable_mre && node->mre_tag == tag) {
                /* Property 4: the most recently evicted tag is absent. */
                n_mre++;
            } else {
                /* Tag-list search of the valid ways, always a prefix: all
                 * A once the set is full, else up to the fill pointer. */
                const int64_t valid =
                    node_tags[associativity - 1] ? associativity : node->fifo_ptr;
                int64_t w = 0;
                while (w < valid && node_tags[w] != tag)
                    w++;
                if (w < valid) {
                    way = w;
                    n_examined += w + 1;
                } else {
                    n_examined += valid;
                }
            }

            node->mra = tag;
            if (way >= 0) {
                /* Algorithm 1: Handle_hit. */
                *parent_wave = way + 1;
                parent_wave = node_waves + way;
                incoming_wave = *parent_wave;
            } else {
                /* Algorithm 2: Handle_miss. */
                tally[2 * level + 1]++;
                const int64_t victim = node->fifo_ptr;
                *parent_wave = victim + 1;
                parent_wave = node_waves + victim;
                const int64_t displaced_tag = node_tags[victim];
                node_tags[victim] = tag;
                if (node->mre_tag == tag) {
                    /* Re-insert the evicted tag, recycling its wave pointer. */
                    incoming_wave = node->mre_wave;
                    node->mre_tag = displaced_tag;
                    node->mre_wave = *parent_wave;
                } else {
                    incoming_wave = 0;
                    if (displaced_tag != 0) {
                        node->mre_tag = displaced_tag;
                        node->mre_wave = *parent_wave;
                    }
                }
                *parent_wave = incoming_wave;
                node->fifo_ptr = victim + 1 == associativity ? 0 : victim + 1;
            }
        }
    }

    tally[2 * levels] = n_wave;
    tally[2 * levels + 1] = n_wave_hit;
    tally[2 * levels + 2] = n_mre;
    tally[2 * levels + 3] = n_examined;
}
